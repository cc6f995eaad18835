package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// newTestPeers builds a Peers whose only peer is the given test server.
func newTestPeers(t *testing.T, peer string, hedge, timeout time.Duration) *Peers {
	t.Helper()
	p, err := New(Config{
		Self:       "127.0.0.1:1", // never dialed: tests always fetch from the peer
		Peers:      []string{peer},
		HedgeDelay: hedge,
		Timeout:    timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func hostOf(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	return strings.TrimPrefix(ts.URL, "http://")
}

func statFor(t *testing.T, p *Peers, addr string) PeerStat {
	t.Helper()
	for _, s := range p.Stats() {
		if s.Addr == addr {
			return s
		}
	}
	t.Fatalf("no stats for %q", addr)
	return PeerStat{}
}

func TestFetchHit(t *testing.T) {
	var gotBody []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotBody, _ = io.ReadAll(r.Body)
		w.Write([]byte(`{"x":1}`))
	}))
	defer ts.Close()
	addr := hostOf(t, ts)
	p := newTestPeers(t, addr, -1, time.Second)

	body, ok := p.Fetch(addr, 'c', []byte("key-1"))
	if !ok || string(body) != `{"x":1}` {
		t.Fatalf("fetch = %q, %v", body, ok)
	}
	if string(gotBody) != "ckey-1" {
		t.Fatalf("peer saw body %q, want %q", gotBody, "ckey-1")
	}
	s := statFor(t, p, addr)
	if s.Hits != 1 || s.Misses != 0 || s.Fallbacks != 0 || s.Errors != 0 {
		t.Fatalf("stats after hit: %+v", s)
	}
}

func TestFetchMissAndError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	}))
	defer ts.Close()
	addr := hostOf(t, ts)
	p := newTestPeers(t, addr, -1, time.Second)
	if _, ok := p.Fetch(addr, 'r', []byte("k")); ok {
		t.Fatal("404 reported as hit")
	}
	s := statFor(t, p, addr)
	if s.Misses != 1 || s.Fallbacks != 1 || s.Errors != 0 {
		t.Fatalf("stats after miss: %+v", s)
	}

	// A dead peer is an error + fallback, bounded by the timeout.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadAddr := hostOf(t, dead)
	dead.Close()
	p2 := newTestPeers(t, deadAddr, -1, 200*time.Millisecond)
	start := time.Now()
	if _, ok := p2.Fetch(deadAddr, 'c', []byte("k")); ok {
		t.Fatal("dead peer reported as hit")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("dead-peer fetch took %v, want fast-fail", el)
	}
	s2 := statFor(t, p2, deadAddr)
	if s2.Errors != 1 || s2.Fallbacks != 1 {
		t.Fatalf("stats after error: %+v", s2)
	}
}

func TestFetchHedgeWin(t *testing.T) {
	// First request stalls; the hedge answers immediately. The hedge must win
	// and the stalled request must be canceled via the shared context.
	var calls atomic.Int32
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		w.Write([]byte("fast"))
	}))
	defer ts.Close()
	defer close(release)
	addr := hostOf(t, ts)
	p := newTestPeers(t, addr, 20*time.Millisecond, 5*time.Second)

	start := time.Now()
	body, ok := p.Fetch(addr, 'c', []byte("slow-key"))
	if !ok || string(body) != "fast" {
		t.Fatalf("fetch = %q, %v", body, ok)
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("hedged fetch took %v, want ~hedge delay", el)
	}
	s := statFor(t, p, addr)
	if s.Hedges != 1 || s.HedgeWins != 1 || s.Hits != 1 {
		t.Fatalf("stats after hedge win: %+v", s)
	}
}

func TestFetchTimeout(t *testing.T) {
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(block)
	addr := hostOf(t, ts)
	p := newTestPeers(t, addr, 5*time.Millisecond, 100*time.Millisecond)

	start := time.Now()
	if _, ok := p.Fetch(addr, 'c', []byte("k")); ok {
		t.Fatal("timed-out fetch reported as hit")
	}
	if el := time.Since(start); el < 50*time.Millisecond || el > 3*time.Second {
		t.Fatalf("timeout fetch took %v, want ~timeout", el)
	}
	s := statFor(t, p, addr)
	if s.Errors != 1 || s.Fallbacks != 1 || s.Hedges != 1 {
		t.Fatalf("stats after timeout: %+v", s)
	}
}

func TestPush(t *testing.T) {
	var gotBody []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotBody, _ = io.ReadAll(r.Body)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	addr := hostOf(t, ts)
	p := newTestPeers(t, addr, -1, time.Second)

	p.Push(addr, 'r', []byte("the\nkey"), []byte("the\nbody"))
	want := "r\x00\x00\x00\x07the\nkeythe\nbody"
	if !bytes.Equal(gotBody, []byte(want)) {
		t.Fatalf("push framed %q, want %q", gotBody, want)
	}
	if layer, key, body, err := ParsePutFrame(gotBody); err != nil || layer != 'r' || string(key) != "the\nkey" || string(body) != "the\nbody" {
		t.Fatalf("ParsePutFrame = %q %q %q %v", layer, key, body, err)
	}
	s := statFor(t, p, addr)
	if s.Pushes != 1 || s.PushErrors != 0 {
		t.Fatalf("stats after push: %+v", s)
	}

	// A rejecting owner counts a push error but nothing else breaks.
	rej := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer rej.Close()
	rejAddr := hostOf(t, rej)
	p2 := newTestPeers(t, rejAddr, -1, time.Second)
	p2.Push(rejAddr, 'c', []byte("k"), []byte("b"))
	s2 := statFor(t, p2, rejAddr)
	if s2.Pushes != 1 || s2.PushErrors != 1 {
		t.Fatalf("stats after rejected push: %+v", s2)
	}
}

// TestParsePutFrameRejects: a frame must hold a layer byte, a length
// prefix, a non-empty key of that length and a non-empty body (TestPush
// parses a good one); a newline-framed put reads as a length past the
// frame.
func TestParsePutFrameRejects(t *testing.T) {
	for _, frame := range []string{
		"",
		"c\x00\x00\x00",
		"c\x00\x00\x00\x00body",    // empty key
		"c\x00\x00\x00\x03key",     // no body
		"c\x00\x00\x00\x09keybody", // length overruns the frame
		"c\xff\xff\xff\xffkeybody", // length overruns a 32-bit frame offset
		"cthe-key\nbody",           // newline framing
	} {
		if _, _, _, err := ParsePutFrame([]byte(frame)); err == nil {
			t.Errorf("ParsePutFrame(%q) accepted", frame)
		}
	}
}

// TestDoReadsWholeBody: do returns the owner's bytes exactly whether the
// response declares its length or is chunked, and a response shorter than
// its declared length is an error.
func TestDoReadsWholeBody(t *testing.T) {
	want := bytes.Repeat([]byte("0123456789abcdef"), 1<<16)
	want = append(want, "end"...)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/declared":
			w.Header().Set("Content-Length", strconv.Itoa(len(want)))
			w.Write(want)
		case "/chunked":
			w.Write(want[:len(want)/2])
			w.(http.Flusher).Flush()
			w.Write(want[len(want)/2:])
		case "/short":
			w.Header().Set("Content-Length", strconv.Itoa(len(want)+1))
			w.Write(want)
		}
	}))
	defer ts.Close()
	addr := hostOf(t, ts)
	p := newTestPeers(t, addr, -1, time.Second)
	for _, path := range []string{"/declared", "/chunked"} {
		got, status, err := p.do(context.Background(), addr, path, nil)
		if err != nil || status != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%s: %d bytes, status %d, err %v; want %d bytes", path, len(got), status, err, len(want))
		}
	}
	if _, _, err := p.do(context.Background(), addr, "/short", nil); err == nil {
		t.Fatal("/short: a body shorter than its Content-Length read without error")
	}
}

func TestNewRequiresPeer(t *testing.T) {
	if _, err := New(Config{Self: "a:1", Peers: []string{"a:1"}}); err == nil {
		t.Fatal("single-member fleet accepted")
	}
	p, err := New(Config{Self: "a:1", Peers: []string{"b:2"}})
	if err != nil {
		t.Fatal(err)
	}
	if p.HedgeDelay() != DefaultHedgeDelay || p.Timeout() != DefaultTimeout {
		t.Fatalf("defaults not applied: hedge=%v timeout=%v", p.HedgeDelay(), p.Timeout())
	}
}
