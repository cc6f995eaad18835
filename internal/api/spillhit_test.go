package api

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// postBatchHTTP POSTs body to /v1/batch and returns the response and its bytes.
func postBatchHTTP(t *testing.T, srv string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("status %d err %v", resp.StatusCode, err)
	}
	return resp, got
}

// TestBatchSpillHitHTTP: over a real loopback server, a repeated streamed
// body is a spill hit framed by Content-Length (the stored body's length,
// so net/http can sendfile it) while the fresh stream before it stays
// chunked; the bytes are BatchBody's, and statz counts the hit once — also
// when the segment file cannot be reopened and the copy falls back to the
// store's own descriptor.
func TestBatchSpillHitHTTP(t *testing.T) {
	s, dir := newSpillServer(t, 128<<10)
	s.StreamBatchThreshold = 1 // everything streams
	srv := newTestServerFrom(t, s)
	const profiles = 450
	body := bigBatchBody(t, 5, profiles)
	_, want, msg := NewServer().BatchBody(body)
	if want == nil {
		t.Fatalf("reference: %s", msg)
	}

	resp, got := postBatchHTTP(t, srv, body)
	if resp.ContentLength >= 0 || !bytes.Equal(got, want) {
		t.Fatalf("fresh stream: Content-Length %d, body equal %v", resp.ContentLength, bytes.Equal(got, want))
	}
	hits := s.spillStats().Hits
	check := func(n uint64) {
		t.Helper()
		resp, got := postBatchHTTP(t, srv, body)
		if resp.ContentLength != int64(len(want)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("spill hit: Content-Length %d, Transfer-Encoding %v; want %d, none",
				resp.ContentLength, resp.TransferEncoding, len(want))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("spill hit diverges from BatchBody\nhit  %.200q\nwant %.200q", got, want)
		}
		if h := s.spillStats().Hits; h != hits+n-1 {
			t.Fatalf("spill hits %d, want %d", h, hits+n-1)
		}
		b := statzOf(t, s).Batch
		if b.Streamed != n || b.Requests != n || b.Profiles != n*profiles || b.ProfilesUnknown != 0 {
			t.Fatalf("statz streamed/requests/profiles/unknown = %d/%d/%d/%d, want %d/%d/%d/0",
				b.Streamed, b.Requests, b.Profiles, b.ProfilesUnknown, n, n, n*profiles)
		}
	}
	check(2)

	// Unlink the segment files behind the store's open descriptors: the
	// pre-verify still reads them, the reopen for sendfile fails.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	for _, p := range segs {
		os.Remove(p)
	}
	check(3)
}

// TestBatchCallerBodyNotKept: BatchBodyStream and BatchBody keep no
// reference to the caller's body. Once the caller overwrites its buffer,
// the original bytes still get their response (from spill or memory), and
// the new bytes never get the old one — not even after the front evicts
// the entry its first request promoted, which hands the entry's key to the
// spill writer.
func TestBatchCallerBodyNotKept(t *testing.T) {
	s, _ := newSpillServer(t, 256<<10) // the front holds about two of these
	orig := bigBatchBody(t, 5, 450)
	other := bigBatchBody(t, 6, 450)
	if len(other) != len(orig) || bytes.Equal(other, orig) {
		t.Fatal("test bodies must differ at the same length")
	}
	ref := func(body []byte) []byte {
		_, resp, msg := NewServer().BatchBody(body)
		if resp == nil {
			t.Fatalf("reference: %s", msg)
		}
		return resp
	}
	want, wantOther := ref(orig), ref(other)
	stream := func(body []byte) []byte {
		var out bytes.Buffer
		if status, msg, err := s.BatchBodyStream(context.Background(), &out, body); status != 200 || err != nil {
			t.Fatalf("stream: %d %s %v", status, msg, err)
		}
		return out.Bytes()
	}
	buffered := func(body []byte) []byte {
		status, resp, msg := s.BatchBody(body)
		if status != 200 {
			t.Fatalf("buffered: %d %s", status, msg)
		}
		return resp
	}

	buf := bytes.Clone(orig)
	if !bytes.Equal(stream(buf), want) { // renders and tees into spill
		t.Fatal("fresh stream diverges")
	}
	if !bytes.Equal(buffered(buf), want) { // spill point read, promoted
		t.Fatal("buffered read diverges")
	}
	copy(buf, other)
	evicted := s.batchRawCache.counters().evicted
	for seed := 7; s.batchRawCache.counters().evicted == evicted; seed++ {
		if seed > 20 {
			t.Fatal("the front never evicted")
		}
		buffered(bigBatchBody(t, seed, 450))
	}
	waitSpill(t, "evict writes to drain", func() bool { return s.spill.queuedBytes.Load() == 0 })
	for i, got := range [][]byte{buffered(buf), stream(buf), stream(orig), buffered(orig)} {
		w := want
		if i < 2 {
			w = wantOther
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("read %d after the caller's buffer was overwritten: wrong response", i)
		}
	}
	for i := range buf {
		buf[i] = 'x'
	}
	if status, _, _ := s.BatchBody(buf); status != http.StatusBadRequest {
		t.Fatalf("garbage over a served body: status %d, want 400", status)
	}
}
