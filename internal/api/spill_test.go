package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hetero/internal/cluster"
	"hetero/internal/spill"
)

// newSpillServer builds a server with deliberately tiny in-memory caches
// (so the working set evicts) backed by a spill store in a temp dir. The
// returned dir lets corruption tests reach the segment files.
func newSpillServer(t *testing.T, maxBytes int64) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := spill.Open(spill.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerWithCache(CacheConfig{
		Entries: 256, MaxBytes: maxBytes, Shards: 1, Coalesce: true,
	})
	s.EnableSpill(st)
	t.Cleanup(s.CloseSpill)
	return s, dir
}

// waitSpill polls until cond holds, failing after a deadline. The evict
// writer is asynchronous by design (the sink must not block a shard
// lock), so tests synchronize on observable store state.
func waitSpill(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpillMeasureEvictRoundtrip: canonical measure entries evicted from
// the byte-budget cache must land in the spill tier and serve later
// requests without re-evaluation, then be promoted back into memory.
func TestSpillMeasureEvictRoundtrip(t *testing.T) {
	s, _ := newSpillServer(t, 700) // ~2 resident entries
	const n = 12
	queries := make([]string, n)
	first := make([][]byte, n)
	for i := range queries {
		queries[i] = fmt.Sprintf("profile=1,0.5,0.%03d", i+101)
		status, body := s.MeasureQuery(queries[i])
		if status != 200 {
			t.Fatalf("query %d: status %d", i, status)
		}
		first[i] = body
	}
	evalsWarm := s.MeasureEvals()
	if evalsWarm == 0 {
		t.Fatal("warm pass ran no evaluations")
	}
	// Every eviction the canonical cache reported must reach the store
	// (the queue is far larger than this working set, so no drops).
	waitSpill(t, "evict writes to drain", func() bool {
		ss := s.spillStats()
		return ss.Writes >= s.cache.counters().evicted && ss.DroppedWrites == 0
	})
	if ev := s.cache.counters().evicted; ev == 0 {
		t.Fatal("working set did not overflow the memory cache")
	}

	// The oldest key is long evicted: the re-request must be a spill hit,
	// byte-identical, with zero new evaluations.
	status, body := s.MeasureQuery(queries[0])
	if status != 200 {
		t.Fatalf("re-request status %d", status)
	}
	if !bytes.Equal(body, first[0]) {
		t.Fatalf("spill hit diverged:\n got %q\nwant %q", body, first[0])
	}
	if got := s.MeasureEvals(); got != evalsWarm {
		t.Fatalf("spill hit ran %d new evaluations", got-evalsWarm)
	}
	hits := s.spillStats().Hits
	if hits == 0 {
		t.Fatal("spill hits = 0 after serving an evicted key")
	}

	// Promotion: the hit's fill insert put the body back in memory, so an
	// immediate repeat must not touch the disk tier again.
	if status, body = s.MeasureQuery(queries[0]); status != 200 || !bytes.Equal(body, first[0]) {
		t.Fatalf("promoted repeat: status %d", status)
	}
	if got := s.spillStats().Hits; got != hits {
		t.Fatalf("promoted repeat consulted spill again (hits %d -> %d)", hits, got)
	}
	if got := s.MeasureEvals(); got != evalsWarm {
		t.Fatal("promoted repeat re-evaluated")
	}
}

// TestSpillPromotionIsNotOfferedBack: a body promoted from the spill tier
// is already on disk, so under write-through it must be offered back
// neither when the fill inserts it nor when it is evicted again. Computed
// bodies still reach the sinks as before.
func TestSpillPromotionIsNotOfferedBack(t *testing.T) {
	st, err := spill.Open(spill.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerWithCache(CacheConfig{Entries: 256, MaxBytes: 700, Shards: 1, Coalesce: true})
	s.EnableSpillOptions(st, SpillOptions{WriteThrough: true})
	t.Cleanup(s.CloseSpill)
	// The sinks run synchronously on the requesting goroutine, under the
	// shard lock; the requests below are sequential.
	var offers []string
	sh := &s.cache.shards[0]
	evict, insert := sh.sink, sh.wsink
	s.cache.setSinks(func(key string, body []byte) {
		offers = append(offers, "evict "+key)
		evict(key, body)
	}, func(key string, body []byte) {
		offers = append(offers, "insert "+key)
		insert(key, body)
	})
	query := func(i int) {
		t.Helper()
		if status, _ := s.MeasureQuery(fmt.Sprintf("profile=1,0.5,0.%03d", i+101)); status != 200 {
			t.Fatalf("query %d: status %d", i, status)
		}
	}
	for i := 0; i < 12; i++ {
		query(i)
	}
	if len(offers) == 0 || !strings.HasPrefix(offers[0], "insert ") {
		t.Fatalf("computed bodies were not offered at insert: %q", offers)
	}
	key0 := strings.TrimPrefix(offers[0], "insert ")
	waitSpill(t, "write-through to drain", func() bool { return s.spillStats().Writes >= 12 })

	hits := s.spillStats().Hits
	mark := len(offers)
	query(0) // long evicted: a spill hit, promoted by the fill
	if s.spillStats().Hits != hits+1 {
		t.Fatal("re-request of an evicted key was not a spill hit")
	}
	for i := 100; i < 112; i++ {
		query(i) // push the promoted entry out of memory again
	}
	if _, _, ok := get(s.cache, hashKey(key0), key0); ok {
		t.Fatal("the promoted entry is still resident; the test did not evict it")
	}
	inserts := 0
	for _, o := range offers[mark:] {
		if strings.HasSuffix(o, " "+key0) {
			t.Fatalf("promoted body offered back to spill: %q", o)
		}
		if strings.HasPrefix(o, "insert ") {
			inserts++
		}
	}
	if inserts != 12 {
		t.Fatalf("%d computed bodies offered at insert after the promotion, want 12", inserts)
	}
}

// TestSpillRawFrontRoundtrip: large raw queries (≥ rawFastPathMinQuery)
// evicted from the raw front must round-trip through disk under the raw
// layer key and serve re-requests with zero parsing or evaluation.
func TestSpillRawFrontRoundtrip(t *testing.T) {
	s, _ := newSpillServer(t, 64<<10)
	mkQuery := func(i int) string {
		var b strings.Builder
		fmt.Fprintf(&b, "profile=1,0.%03d", i+101)
		for j := 0; j < 1200; j++ {
			b.WriteString(",0.5")
		}
		return b.String() // ~4.8KB, over the raw fast-path floor
	}
	const n = 8
	first := make([][]byte, n)
	for i := 0; i < n; i++ {
		status, body := s.MeasureQuery(mkQuery(i))
		if status != 200 {
			t.Fatalf("query %d: status %d", i, status)
		}
		first[i] = body
	}
	evalsWarm := s.MeasureEvals()
	waitSpill(t, "raw evictions to land", func() bool {
		_, ok := s.spillGet(layerRaw, mkQuery(0))
		return ok
	})

	status, body := s.MeasureQuery(mkQuery(0))
	if status != 200 || !bytes.Equal(body, first[0]) {
		t.Fatalf("raw spill hit diverged (status %d)", status)
	}
	if got := s.MeasureEvals(); got != evalsWarm {
		t.Fatalf("raw spill hit ran %d new evaluations", got-evalsWarm)
	}
}

// TestSpillMeasureOverShardBudget: a /v1/measure response over its shard's
// byte budget is kept by no memory layer, so readThrough writes it to spill
// when it is computed, and the repeat is a spill hit, not an evaluation.
func TestSpillMeasureOverShardBudget(t *testing.T) {
	st, err := spill.Open(spill.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerWithCache(CacheConfig{Entries: 256, MaxBytes: 8 << 10, Shards: 1, Coalesce: true})
	s.EnableSpillOptions(st, SpillOptions{WriteThrough: true})
	t.Cleanup(s.CloseSpill)
	q := largeTestQuery(1024, 5)
	status, first := s.MeasureQuery(q)
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	status, again := s.MeasureQuery(q)
	if status != 200 || !bytes.Equal(again, first) {
		t.Fatalf("repeat diverged (status %d)", status)
	}
	if rejected := s.rawCache.counters().rejected; rejected == 0 {
		t.Fatal("the raw entry fit its shard; this case must exercise a rejected entry")
	}
	if evals, hits := s.MeasureEvals(), s.spillStats().Hits; evals != 1 || hits != 1 {
		t.Fatalf("evaluations %d, spill hits %d; want 1 and 1", evals, hits)
	}
}

// TestSpillMeasureWithoutMemoryCache: with the memory caches off
// (-cache-size 0), a computed /v1/measure response goes straight to spill
// layer c, so a repeated GET reads it back instead of evaluating.
func TestSpillMeasureWithoutMemoryCache(t *testing.T) {
	st, err := spill.Open(spill.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerCacheSize(0)
	s.EnableSpill(st)
	t.Cleanup(s.CloseSpill)
	h := s.Handler()
	var bodies [2][]byte
	for i := range bodies {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/measure?profile=1,0.5,0.25", nil))
		if w.Code != 200 {
			t.Fatalf("GET %d: status %d: %s", i, w.Code, w.Body)
		}
		bodies[i] = w.Body.Bytes()
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("repeat diverged:\n got %q\nwant %q", bodies[1], bodies[0])
	}
	if sp := s.spillStats(); sp.Writes != 1 || sp.Hits != 1 {
		t.Fatalf("spill writes %d, hits %d; want 1 and 1", sp.Writes, sp.Hits)
	}
	if evals := s.MeasureEvals(); evals != 1 {
		t.Fatalf("evaluations %d, want 1", evals)
	}
}

// bigBatchBody returns a /v1/batch JSON body over the raw body-front
// floor, with a distinguishing first profile per seed.
func bigBatchBody(t *testing.T, seed, profiles int) []byte {
	t.Helper()
	req := BatchRequest{Profiles: make([][]float64, profiles)}
	req.Profiles[0] = []float64{1, float64(seed+101) / 1000}
	for i := 1; i < profiles; i++ {
		req.Profiles[i] = []float64{1, 0.5, 0.25}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) < batchRawMinBody {
		t.Fatalf("test body %d bytes, below the %d front floor", len(body), batchRawMinBody)
	}
	return body
}

// TestSpillBatchBufferedRoundtrip: a buffered batch response evicted from
// the body-front cache must serve the identical bytes from disk, skipping
// decode and render entirely.
func TestSpillBatchBufferedRoundtrip(t *testing.T) {
	s, _ := newSpillServer(t, 128<<10)
	body1 := bigBatchBody(t, 1, 450)
	body2 := bigBatchBody(t, 2, 450)
	status, resp1, msg := s.BatchBody(body1)
	if status != 200 {
		t.Fatalf("first batch: %d %s", status, msg)
	}
	if status, _, msg = s.BatchBody(body2); status != 200 {
		t.Fatalf("second batch: %d %s", status, msg)
	}
	waitSpill(t, "batch front eviction to land", func() bool {
		_, ok := s.spillGet(layerBatch, string(body1))
		return ok
	})
	hits := s.spillStats().Hits
	status, resp, msg := s.BatchBody(body1)
	if status != 200 {
		t.Fatalf("re-request: %d %s", status, msg)
	}
	if !bytes.Equal(resp, resp1) {
		t.Fatal("batch spill hit diverged from the rendered response")
	}
	if got := s.spillStats().Hits; got <= hits {
		t.Fatalf("batch re-request did not hit spill (hits %d -> %d)", hits, got)
	}
}

// TestBatchSpillWithoutMemoryFront: a large POST /v1/batch engages the
// spill tier even when the batch memory front cannot keep the response —
// the front is off (no cache entries, or no coalescing, which turns the raw
// fronts off) or the entry is over its shard's byte budget. Repeating the
// POST must be a spill hit with the same bytes, on the buffered route and
// on the streamed one.
func TestBatchSpillWithoutMemoryFront(t *testing.T) {
	body := bigBatchBody(t, 4, 450)
	_, want, _ := NewServer().BatchBody(body)
	for _, c := range []struct {
		name string
		cfg  CacheConfig
	}{
		{"cache_size_0", CacheConfig{Entries: 0, Coalesce: true}},
		{"coalescing_off", CacheConfig{Entries: 64, Coalesce: false}},
		{"over_shard_budget", CacheConfig{Entries: 64, MaxBytes: 4 << 10, Shards: 1, Coalesce: true}},
	} {
		for _, route := range []struct {
			name      string
			threshold int
		}{{"buffered", 0}, {"streamed", 1}} {
			t.Run(c.name+"/"+route.name, func(t *testing.T) {
				st, err := spill.Open(spill.Config{Dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				s := NewServerWithCache(c.cfg)
				s.StreamBatchThreshold = route.threshold
				s.EnableSpill(st)
				t.Cleanup(s.CloseSpill)
				post := func() []byte {
					w := httptest.NewRecorder()
					s.handleBatch(w, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
					if w.Code != 200 {
						t.Fatalf("status %d: %s", w.Code, w.Body)
					}
					return w.Body.Bytes()
				}
				if got := post(); !bytes.Equal(got, want) {
					t.Fatalf("first POST diverged: %.120q", got)
				}
				hits := s.spillStats().Hits
				if got := post(); !bytes.Equal(got, want) {
					t.Fatalf("repeated POST diverged: %.120q", got)
				}
				if got := s.spillStats().Hits; got != hits+1 {
					t.Fatalf("repeated POST was not a spill hit (hits %d -> %d)", hits, got)
				}
				if stz := statzOf(t, s); stz.Batch.Requests != 2 || stz.Batch.Profiles != 900 {
					t.Fatalf("statz requests/profiles = %d/%d, want 2/900", stz.Batch.Requests, stz.Batch.Profiles)
				}
			})
		}
	}
}

// TestSpillStreamedBatch: the streaming batch path must tee its response
// into the spill tier on the first pass and serve the second pass
// byte-identically straight from the segment reader; after on-disk
// corruption it must fall back to evaluation with the same bytes.
func TestSpillStreamedBatch(t *testing.T) {
	s, dir := newSpillServer(t, 128<<10)
	body := bigBatchBody(t, 3, 450)
	run := func() []byte {
		var buf bytes.Buffer
		status, msg, err := s.BatchBodyStream(context.Background(), &buf, body)
		if err != nil || status != 200 {
			t.Fatalf("stream: status %d msg %q err %v", status, msg, err)
		}
		return buf.Bytes()
	}

	firstPass := run() // renders and tees: Commit is synchronous
	if w := s.spillStats().Writes; w == 0 {
		t.Fatal("streamed render did not tee into spill")
	}
	hits := s.spillStats().Hits
	if got := run(); !bytes.Equal(got, firstPass) {
		t.Fatal("streamed spill hit diverged from the rendered response")
	}
	if got := s.spillStats().Hits; got <= hits {
		t.Fatalf("second stream did not hit spill (hits %d -> %d)", hits, got)
	}

	// Bit-flip every segment: the CRC pre-verification must turn the
	// stored entry into a miss (never a corrupt byte on the wire) and the
	// path must fall back to rendering the same response.
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files to corrupt (err %v)", err)
	}
	for _, p := range segs {
		f, err := os.OpenFile(p, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		info, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		buf := []byte{0}
		off := info.Size() / 2
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		buf[0] ^= 0xff
		if _, err := f.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if got := run(); !bytes.Equal(got, firstPass) {
		t.Fatal("corrupted-spill fallback diverged from the rendered response")
	}
	if c := s.spillStats().Corrupt; c == 0 {
		t.Fatal("corruption was not detected by the CRC check")
	}
}

// TestSpillStreamedSweepSurvivesFreshFlood: four streamed batch bodies,
// re-read between fresh ones, stay spill hits while a flood of fresh
// streamed bodies pushes the store many times past its MaxBytes. The
// sweep records are the oldest on disk, so oldest-first retirement would
// take them first; their reads give them a second chance instead.
func TestSpillStreamedSweepSurvivesFreshFlood(t *testing.T) {
	const profiles = 450
	run := func(s *Server, body []byte) []byte {
		t.Helper()
		var buf bytes.Buffer
		status, msg, err := s.BatchBodyStream(context.Background(), &buf, body)
		if err != nil || status != 200 {
			t.Fatalf("stream: status %d msg %q err %v", status, msg, err)
		}
		return buf.Bytes()
	}
	// Size the store to ten sweep records from one plain render.
	probe := bigBatchBody(t, 0, profiles)
	record := int64(len(probe) + len(run(NewServer(), probe)))
	st, err := spill.Open(spill.Config{Dir: t.TempDir(), MaxBytes: 10 * record})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerWithCache(CacheConfig{Entries: 256, MaxBytes: 128 << 10, Shards: 1, Coalesce: true})
	s.StreamBatchThreshold = 1 << 10 // every body streams: renders tee, repeats stream from spill
	s.EnableSpill(st)
	t.Cleanup(s.CloseSpill)

	var sweep, want [4][]byte
	for i := range sweep {
		sweep[i] = bigBatchBody(t, i, profiles)
		want[i] = run(s, sweep[i])
	}
	const fresh = 40
	for j := 0; j < fresh; j++ {
		run(s, bigBatchBody(t, 100+j, profiles))
		for i, body := range sweep {
			hits := s.spillStats().Hits
			if got := run(s, body); !bytes.Equal(got, want[i]) {
				t.Fatalf("sweep body %d diverged after %d fresh bodies", i, j+1)
			}
			if s.spillStats().Hits != hits+1 {
				t.Fatalf("sweep body %d missed spill after %d fresh bodies (%d segments retired)", i, j+1, s.spillStats().RetiredSegments)
			}
		}
	}
	if streamed, total := s.batchStreamed.Load(), uint64(len(sweep)+fresh*(1+len(sweep))); streamed != total {
		t.Fatalf("%d of %d bodies streamed", streamed, total)
	}
	if retired := s.spillStats().RetiredSegments; retired < fresh/2 {
		t.Fatalf("%d segments retired: the flood never swept the store", retired)
	}
}

// TestStatzSpillBlock: /v1/statz must expose the spill tier, off and on.
func TestStatzSpillBlock(t *testing.T) {
	if stz := statzOf(t, NewServer()); stz.Spill.Enabled {
		t.Fatal("spill reported enabled on a plain server")
	}
	s, _ := newSpillServer(t, 700)
	for i := 0; i < 12; i++ {
		if status, _ := s.MeasureQuery(fmt.Sprintf("profile=1,0.5,0.%03d", i+101)); status != 200 {
			t.Fatalf("query %d failed", i)
		}
	}
	waitSpill(t, "statz writes", func() bool { return s.spillStats().Writes > 0 })
	stz := statzOf(t, s)
	if !stz.Spill.Enabled {
		t.Fatal("spill not reported enabled")
	}
	if stz.Spill.Writes == 0 || stz.Spill.Entries == 0 || stz.Spill.Bytes == 0 {
		t.Fatalf("spill statz block empty: %+v", stz.Spill)
	}
	if stz.Spill.MaxBytes == 0 || stz.Spill.MaxIndexBytes == 0 {
		t.Fatalf("spill budgets missing from statz: %+v", stz.Spill)
	}
}

// TestStatzShardGeometry: every cache layer must report its shard count.
func TestStatzShardGeometry(t *testing.T) {
	stz := statzOf(t, NewServer())
	if stz.MeasureCache.Shards < 1 {
		t.Fatalf("canonical shards = %d", stz.MeasureCache.Shards)
	}
	if stz.MeasureCache.RawShards < 1 {
		t.Fatalf("raw front shards = %d", stz.MeasureCache.RawShards)
	}
	if stz.Batch.RawShards < 1 {
		t.Fatalf("batch front shards = %d", stz.Batch.RawShards)
	}
	// An explicit count pins the gauge exactly.
	fixed := statzOf(t, NewServerWithCache(CacheConfig{Entries: 64, Shards: 4, Coalesce: true}))
	if fixed.MeasureCache.Shards != 4 || fixed.MeasureCache.RawShards != 4 || fixed.Batch.RawShards != 4 {
		t.Fatalf("fixed geometry: canonical %d raw %d batch %d, want 4 each",
			fixed.MeasureCache.Shards, fixed.MeasureCache.RawShards, fixed.Batch.RawShards)
	}
}

// TestPeerPutBodyCap: the unified MaxBody cap must reject oversized
// /internal/peer/put bodies with a structured 413 before any frame
// parsing, exactly like the public POST endpoints.
func TestPeerPutBodyCap(t *testing.T) {
	s := NewServer()
	s.MaxBody = 64
	w := httptest.NewRecorder()
	body := bytes.Repeat([]byte{'x'}, 200)
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, cluster.PeerPutPath, bytes.NewReader(body)))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", w.Code)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("want structured error body, got %q (err %v)", w.Body.String(), err)
	}
	if !strings.Contains(e.Error, "64") {
		t.Fatalf("error %q does not name the cap", e.Error)
	}
	// A frame under the cap passes the cap (and fails later, on the
	// cluster-tier check) — the cap is not simply rejecting everything.
	w = httptest.NewRecorder()
	frame := cluster.PutFrame(layerCanonical, []byte("k"), []byte("body"))
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, cluster.PeerPutPath, bytes.NewReader(frame)))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("under-cap frame: status %d, want 400 (no cluster tier)", w.Code)
	}
}
