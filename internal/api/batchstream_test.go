package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"hetero/internal/core"
	"hetero/internal/model"
	"hetero/internal/profile"
)

// streamOf runs the streaming renderer for one batch body into a buffer and
// fails the test on a pre-stream rejection.
func streamOf(t *testing.T, s *Server, body []byte) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	status, msg, err := s.BatchBodyStream(context.Background(), &buf, body)
	if status != 200 {
		t.Fatalf("stream status %d: %s", status, msg)
	}
	return buf.Bytes(), err
}

// renderStreamFragment resolves one profile's fragment the way a stream's
// one-fragment window does: a canonical-cache hit, else a render into
// scratch. stable reports that the body is cache-owned rather than scratch.
func (s *Server) renderStreamFragment(scratch *renderBuf, m model.Params, p profile.Profile) (frag []byte, stable bool) {
	f := fragment{p: p}
	if !s.probeFragment(m, &f, &scratch.key) {
		s.renderFragment(m, &f, 1, &scratch.body)
	}
	return f.body, !f.scratch
}

// batchSinks drives one batch body through every sink of the one writer:
// the buffer and the stream in process, and both over handleBatch.
var batchSinks = []struct {
	name  string
	serve func(t *testing.T, s *Server, body []byte) []byte
}{
	{"buffer", func(t *testing.T, s *Server, body []byte) []byte {
		status, resp, msg := s.BatchBody(body)
		if status != 200 {
			t.Fatalf("buffered status %d: %s", status, msg)
		}
		return resp
	}},
	{"stream", func(t *testing.T, s *Server, body []byte) []byte {
		got, err := streamOf(t, s, body)
		if err != nil {
			t.Fatalf("stream terminated early: %v", err)
		}
		return got
	}},
	{"http_buffer", func(t *testing.T, s *Server, body []byte) []byte {
		return postBatch(t, s, -1, body)
	}},
	{"http_stream", func(t *testing.T, s *Server, body []byte) []byte {
		return postBatch(t, s, 1, body)
	}},
}

// postBatch serves one POST /v1/batch through handleBatch under the given
// stream threshold.
func postBatch(t *testing.T, s *Server, threshold int, body []byte) []byte {
	t.Helper()
	s.StreamBatchThreshold = threshold
	w := httptest.NewRecorder()
	s.handleBatch(w, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
	if w.Code != 200 {
		t.Fatalf("batch status %d: %s", w.Code, w.Body)
	}
	return w.Body.Bytes()
}

// TestBatchStreamBitIdentical is the golden contract of the one writer:
// through every sink — the buffer's one whole-batch window, the stream's
// one-fragment windows, in process and over HTTP — and across every
// scheduling regime — fan-out, the chunked within-profile kernel, dedupe
// collapse, canonical-cache consult — the response equals spliced
// per-profile /v1/measure bodies, so streamed and buffered bytes are
// equal. The window_edges row puts a duplicate at the first and last
// position, cacheable fragments and a chunked-kernel fragment between
// small ones. Each batch runs twice on one server with the body front off,
// cold and then with every cacheable fragment warm in the canonical cache.
func TestBatchStreamBitIdentical(t *testing.T) {
	small1 := randomRhos(5, 21)
	small2 := randomRhos(9, 22)
	cacheable := randomRhos(batchCacheMinProfile+10, 23)
	large := randomRhos(core.ParallelCutover, 24)
	regimes := []struct {
		name string
		sets [][]float64
	}{
		{"many_small_fanout", [][]float64{small1, small2, randomRhos(3, 25)}},
		{"chunked_large", [][]float64{large}},
		{"mixed_sizes", [][]float64{small1, large, cacheable, small2}},
		{"dedup_collapse", [][]float64{small1, cacheable, small1, small1, cacheable}},
		{"window_edges", [][]float64{small2, small1, cacheable, randomRhos(7, 26), large,
			randomRhos(4, 27), randomRhos(batchCacheMinProfile, 28), small1, randomRhos(2, 29), small2}},
	}
	for _, regime := range regimes {
		t.Run(regime.name, func(t *testing.T) {
			body := marshalBatch(t, regime.sets)
			want := expectedBatchBody(t, regime.sets)
			for _, sink := range batchSinks {
				t.Run(sink.name, func(t *testing.T) {
					s := NewServerWithCache(CacheConfig{Entries: 1024, Coalesce: false})
					cacheable := map[string]bool{}
					for _, rhos := range regime.sets {
						if s.fragmentKey(nil, s.Defaults, rhos) != nil {
							cacheable[measureQueryFor(rhos)] = true
						}
					}
					for pass, wantHits := range []int{0, len(cacheable)} {
						hits := s.batchCanonHits.Load()
						if got := sink.serve(t, s, body); !bytes.Equal(got, want) {
							t.Fatalf("pass %d diverges from spliced per-profile measure\ngot  %.200q\nwant %.200q", pass, got, want)
						}
						if got := s.batchCanonHits.Load() - hits; got != uint64(wantHits) {
							t.Fatalf("pass %d: %d canonical hits, want %d", pass, got, wantHits)
						}
					}
				})
			}
		})
	}
}

// TestBatchStreamHTTP pins the HTTP behavior of a forced-streaming server:
// the body on the wire is byte-identical to a buffered server's, it travels
// chunked (no Content-Length — the response was never assembled), and the
// statz streamed counter records it.
func TestBatchStreamHTTP(t *testing.T) {
	sets := [][]float64{randomRhos(40, 31), randomRhos(7, 32), randomRhos(40, 31)}
	body := marshalBatch(t, sets)

	s := NewServer()
	s.StreamBatchThreshold = 1 // everything streams
	srv := newTestServerFrom(t, s)
	resp, err := http.Post(srv+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("status %d err %v", resp.StatusCode, err)
	}
	if resp.ContentLength >= 0 {
		t.Fatalf("streamed response advertised Content-Length %d; the body must not have been assembled", resp.ContentLength)
	}
	if len(resp.TransferEncoding) == 0 || resp.TransferEncoding[0] != "chunked" {
		t.Fatalf("streamed response not chunked: %v", resp.TransferEncoding)
	}

	status, want, msg := NewServer().BatchBody(body)
	if status != 200 {
		t.Fatalf("buffered status %d: %s", status, msg)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("HTTP streamed body diverges from buffered\nstream   %.200q\nbuffered %.200q", got, want)
	}

	stz := statzOf(t, s)
	if stz.Batch.Streamed != 1 {
		t.Fatalf("statz streamed = %d, want 1", stz.Batch.Streamed)
	}
	if stz.Batch.Requests != 1 || stz.Batch.Profiles != 3 {
		t.Fatalf("statz requests/profiles = %d/%d, want 1/3", stz.Batch.Requests, stz.Batch.Profiles)
	}
	if stz.Batch.Deduped != 1 {
		t.Fatalf("statz deduped = %d, want 1 (repeated first profile)", stz.Batch.Deduped)
	}
}

// cancelWriter collects the stream and cancels a context once `limit` total
// bytes have been written. Writes always succeed — modeling a client that
// disconnects (context death) rather than a broken pipe — so the renderer's
// only exit is its own per-fragment cancellation check.
type cancelWriter struct {
	buf    bytes.Buffer
	limit  int
	cancel context.CancelFunc
}

func (w *cancelWriter) Write(p []byte) (int, error) {
	n, err := w.buf.Write(p)
	if w.buf.Len() >= w.limit && w.cancel != nil {
		w.cancel()
		w.cancel = nil
	}
	return n, err
}

// streamErrorEnvelope is the decoded shape of a (possibly trailer-terminated)
// streamed batch response.
type streamErrorEnvelope struct {
	Count   int               `json:"count"`
	Results []json.RawMessage `json:"results"`
	Error   *struct {
		Message        string `json:"message"`
		ResultsWritten int    `json:"results_written"`
	} `json:"error"`
}

// TestBatchStreamCancelTrailer: cancellation mid-stream must terminate the
// response as valid JSON via the structured trailer — truncated results,
// results_written naming exactly how many, the cause in message — and the
// bytes before the trailer must be a prefix of the buffered rendering.
func TestBatchStreamCancelTrailer(t *testing.T) {
	sets := [][]float64{randomRhos(16, 41), randomRhos(16, 42), randomRhos(16, 43), randomRhos(16, 44)}
	body := marshalBatch(t, sets)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelWriter{limit: 40, cancel: cancel} // past the envelope + part of fragment 1
	s := NewServer()
	status, msg, err := s.BatchBodyStream(ctx, w, body)
	if status != 200 {
		t.Fatalf("status %d: %s", status, msg)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	out := w.buf.Bytes()
	if !json.Valid(out) {
		t.Fatalf("trailer-terminated stream is not valid JSON: %q", out)
	}
	var env streamErrorEnvelope
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil {
		t.Fatalf("no error trailer in truncated stream: %q", out)
	}
	if env.Count != len(sets) || len(env.Results) >= len(sets) {
		t.Fatalf("count %d, %d results — want truncation below %d", env.Count, len(env.Results), len(sets))
	}
	if env.Error.ResultsWritten != len(env.Results) {
		t.Fatalf("results_written %d but %d results present", env.Error.ResultsWritten, len(env.Results))
	}
	if env.Error.Message == "" {
		t.Fatal("trailer message empty")
	}
	// Everything before the trailer is a prefix of the buffered rendering.
	prefix := out[:bytes.LastIndex(out, []byte(`],"error"`))]
	_, want, _ := NewServer().BatchBody(body)
	if !bytes.HasPrefix(want, prefix) {
		t.Fatalf("truncated stream is not a prefix of the buffered body\nprefix   %.120q\nbuffered %.120q", prefix, want)
	}
}

// TestBatchStreamPreCancelled: a context dead before the first byte must
// produce a plain error status over HTTP (nothing streamed, no trailer).
func TestBatchStreamPreCancelled(t *testing.T) {
	s := NewServer()
	s.StreamBatchThreshold = 1
	srv := newTestServerFrom(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv+"/v1/batch",
		bytes.NewReader(marshalBatch(t, [][]float64{randomRhos(4, 51)})))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("request with dead context unexpectedly completed")
	}
	// The server must remain healthy for the next client.
	if code := postJSON(t, srv+"/v1/batch", BatchRequest{Profiles: [][]float64{{1, 0.5}}}, nil); code != 200 {
		t.Fatalf("follow-up request status %d", code)
	}
}

// TestBatchStreamClientDisconnect: a client vanishing mid-stream must abort
// the per-profile evaluation promptly — handler goroutines wind down (checked
// by goroutine-count settling, meaningful under -race) and the server keeps
// serving.
func TestBatchStreamClientDisconnect(t *testing.T) {
	s := NewServer()
	s.StreamBatchThreshold = 1
	srv := newTestServerFrom(t, s)

	// Enough profiles that the stream cannot finish before the cancel lands.
	sets := make([][]float64, 512)
	for i := range sets {
		sets[i] = randomRhos(64, uint64(60+i))
	}
	body := marshalBatch(t, sets)

	before := runtime.NumGoroutine()
	client := &http.Client{}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	// Read a sliver of the stream, then walk away.
	if _, err := io.ReadFull(resp.Body, make([]byte, 256)); err != nil {
		t.Fatalf("reading stream head: %v", err)
	}
	cancel()
	resp.Body.Close()
	client.CloseIdleConnections()

	// The handler must notice the disconnect and return; poll until the
	// goroutine count settles back near the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d before, %d after disconnect", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code := postJSON(t, srv+"/v1/batch", BatchRequest{Profiles: [][]float64{{1, 0.5}}}, nil); code != 200 {
		t.Fatalf("server unhealthy after disconnect: status %d", code)
	}
}

// TestUnifiedBodyCap: every POST endpoint must enforce the one Server-level
// body cap with the same structured 413 — no endpoint-private limits.
func TestUnifiedBodyCap(t *testing.T) {
	s := NewServer()
	s.MaxBody = 256
	srv := newTestServerFrom(t, s)
	oversized := bytes.Repeat([]byte("1"), 300)
	for _, ep := range []string{"/v1/batch", "/v1/simulate/faulty", "/v1/schedule", "/v1/design"} {
		resp, err := http.Post(srv+ep, "application/json", bytes.NewReader(oversized))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		decodeErr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413", ep, resp.StatusCode)
		}
		if decodeErr != nil || !strings.Contains(e["error"], "256") {
			t.Fatalf("%s: 413 not structured with the limit: %v %v", ep, e, decodeErr)
		}
	}
	// The faulty path must follow a raised cap too — its old private constant
	// was 1 MiB, so a body just past that proves the unified limit governs.
	s2 := NewServer()
	s2.MaxBody = 4 << 20
	srv2 := newTestServerFrom(t, s2)
	req := []byte(`{"profile":[1,0.5],"lifespan":100,"faults":[]}`)
	padded := append(req[:len(req)-1], []byte(`,"pad":"`+strings.Repeat("x", 2<<20)+`"}`)...)
	resp, err := http.Post(srv2+"/v1/simulate/faulty", "application/json", bytes.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("2 MiB faulty body under a 4 MiB cap: status %d, want 200", resp.StatusCode)
	}
}

// TestBatchCountFromBody pins the sniffing fallback's explicit unknown.
func TestBatchCountFromBody(t *testing.T) {
	cases := []struct {
		body string
		n    int
		ok   bool
	}{
		{`{"count":42,"results":[]}`, 42, true},
		{`{"count":7`, 7, true},
		{`{"count":,"results":[]}`, 0, false}, // no digits
		{`{"results":[],"count":3}`, 0, false},
		{``, 0, false},
		{`{"count":`, 0, false},
	}
	for _, c := range cases {
		n, ok := batchCountFromBody([]byte(c.body))
		if n != c.n || ok != c.ok {
			t.Fatalf("batchCountFromBody(%q) = (%d, %v), want (%d, %v)", c.body, n, ok, c.n, c.ok)
		}
	}
}

// TestBatchProfilesUnknown: a cached entry with no admission-time meta and an
// unsniffable body must count the request under profiles_unknown rather than
// silently adding zero profiles.
func TestBatchProfilesUnknown(t *testing.T) {
	s := NewServer()
	s.noteBatchCached([]byte(`:not a batch body:`), 0)
	if got := s.batchProfilesUnknown.Load(); got != 1 {
		t.Fatalf("profiles_unknown = %d, want 1", got)
	}
	if got := s.batchRequests.Load(); got != 1 {
		t.Fatalf("requests = %d, want 1 (unknown still counts the request)", got)
	}
	// With meta present the count comes from admission time, no sniffing.
	s.noteBatchCached([]byte(`garbage`), 5)
	if got := s.batchProfiles.Load(); got != 5 {
		t.Fatalf("profiles = %d, want 5 from meta", got)
	}
	if stz := statzOf(t, s); stz.Batch.ProfilesUnknown != 1 {
		t.Fatalf("statz profiles_unknown = %d, want 1", stz.Batch.ProfilesUnknown)
	}
}

// TestBatchRawFrontMetaCounts: a raw body-front hit must recover the exact
// profile count stored at admission — the bug this PR fixes was repeats
// counting zero profiles.
func TestBatchRawFrontMetaCounts(t *testing.T) {
	s := NewServer()
	sets := [][]float64{randomRhos(batchRawMinBody/8, 71), randomRhos(5, 72)}
	body := marshalBatch(t, sets)
	if len(body) < batchRawMinBody {
		t.Fatal("body too short to engage the raw front")
	}
	if status, _, msg := s.BatchBody(body); status != 200 {
		t.Fatalf("status %d: %s", status, msg)
	}
	if status, _, _ := s.BatchBody(body); status != 200 {
		t.Fatal("repeat failed")
	}
	if got := s.batchRawHits.Load(); got != 1 {
		t.Fatalf("raw hits = %d, want 1", got)
	}
	if got := s.batchProfiles.Load(); got != 4 {
		t.Fatalf("profiles = %d, want 4 (2 per request, both counted)", got)
	}
	if got := s.batchProfilesUnknown.Load(); got != 0 {
		t.Fatalf("profiles_unknown = %d, want 0 — meta must carry the count", got)
	}
}

// FuzzBatchStreamFraming: wherever the context dies during the stream, the
// bytes written so far plus the trailer must always parse as JSON, with
// results_written matching the results actually present.
func FuzzBatchStreamFraming(f *testing.F) {
	f.Add(uint16(0), uint8(3), uint8(4))
	f.Add(uint16(11), uint8(1), uint8(1))
	f.Add(uint16(40), uint8(5), uint8(2))
	f.Add(uint16(300), uint8(4), uint8(8))
	f.Add(uint16(65535), uint8(2), uint8(50))
	f.Fuzz(func(t *testing.T, cancelAfter uint16, nProf, nRho uint8) {
		n := int(nProf)%12 + 1
		k := int(nRho)%48 + 1
		sets := make([][]float64, n)
		for i := range sets {
			rhos := make([]float64, k)
			for j := range rhos {
				rhos[j] = 1 / float64(i+j+1)
			}
			sets[i] = rhos
		}
		body, err := json.Marshal(BatchRequest{Profiles: sets})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		w := &cancelWriter{limit: int(cancelAfter), cancel: cancel}
		s := NewServer()
		status, msg, serr := s.BatchBodyStream(ctx, w, body)
		if status != 200 {
			t.Fatalf("status %d: %s", status, msg)
		}
		out := w.buf.Bytes()
		if !json.Valid(out) {
			t.Fatalf("stream output invalid JSON (cancelAfter %d): %q", cancelAfter, out)
		}
		var env streamErrorEnvelope
		if err := json.Unmarshal(out, &env); err != nil {
			t.Fatal(err)
		}
		if env.Count != n {
			t.Fatalf("count %d, want %d", env.Count, n)
		}
		if serr != nil {
			if env.Error == nil || env.Error.ResultsWritten != len(env.Results) {
				t.Fatalf("truncated stream without a coherent trailer: err %v, %q", serr, out)
			}
		} else if env.Error != nil || len(env.Results) != n {
			t.Fatalf("complete stream carries a trailer or short results: %q", out)
		}
	})
}
