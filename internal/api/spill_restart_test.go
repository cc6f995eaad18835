package api

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"hetero/internal/spill"
)

// TestSpillOfferBoundUnderRace: concurrent offers must never enqueue more
// than spillQueueMaxBytes. The old load-then-add check let every racing
// offer observe room and overshoot together; the reserve-then-undo scheme
// holds the bound no matter the interleaving. Run with -race (the Makefile
// test target does) to also catch accounting races.
func TestSpillOfferBoundUnderRace(t *testing.T) {
	// No writeLoop: nothing drains the queue, so the byte bound is the
	// only thing standing between the offers and the entry-capacity cap.
	tier := &spillTier{
		queue: make(chan spillItem, spillQueueEntries),
		done:  make(chan struct{}),
	}
	body := make([]byte, 1<<20)
	const goroutines, perG = 32, 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tier.offer(layerCanonical, fmt.Sprintf("k-%d-%d", g, i), body)
			}
		}(g)
	}
	wg.Wait()

	var queued int64
	accepted := 0
drain:
	for {
		select {
		case it := <-tier.queue:
			queued += int64(len(it.key) + len(it.body))
			accepted++
		default:
			break drain
		}
	}
	if queued > spillQueueMaxBytes {
		t.Fatalf("queue held %d bytes, bound is %d", queued, spillQueueMaxBytes)
	}
	if got := tier.queuedBytes.Load(); got != queued {
		t.Fatalf("queuedBytes account %d, actual queued %d", got, queued)
	}
	if drops := tier.drops.Load(); int(drops) != goroutines*perG-accepted {
		t.Fatalf("drops %d + accepted %d != offers %d", drops, accepted, goroutines*perG)
	}
	if accepted == 0 {
		t.Fatal("every offer dropped — bound test exercised nothing")
	}
}

// newWriteThroughServer builds a server whose memory tier comfortably
// holds the working set (nothing evicts — the write-through offers and the
// shutdown flush are the only routes to disk) on top of a spill store in
// dir.
func newWriteThroughServer(t *testing.T, dir string) *Server {
	t.Helper()
	st, err := spill.Open(spill.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerWithCache(CacheConfig{
		Entries: 256, MaxBytes: 1 << 20, Shards: 1, Coalesce: true,
	})
	s.EnableSpillOptions(st, SpillOptions{WriteThrough: true})
	return s
}

// TestSpillWriteThroughRestartRoundtrip is the tentpole's end-to-end
// contract at the API layer: populate over HTTP-equivalent entry points,
// shut the spill tier down cleanly, reopen the same directory under a
// fresh server (empty memory), and every previously served response —
// point, buffered /v1/batch, and streamed /v1/batch — must come back
// byte-identical with zero re-evaluations.
func TestSpillWriteThroughRestartRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s1 := newWriteThroughServer(t, dir)

	const n = 8
	queries := make([]string, n)
	want := make([][]byte, n)
	for i := range queries {
		queries[i] = fmt.Sprintf("profile=1,0.5,0.%03d", i+101)
		status, body := s1.MeasureQuery(queries[i])
		if status != 200 {
			t.Fatalf("query %d: status %d", i, status)
		}
		want[i] = body
	}
	if s1.cache.counters().evicted != 0 {
		t.Fatal("working set evicted; this test must exercise write-through, not evict-to-disk")
	}
	batchReq := bigBatchBody(t, 7, 450)
	status, wantBatch, msg := s1.BatchBody(batchReq)
	if status != 200 {
		t.Fatalf("batch: %d %s", status, msg)
	}
	streamReq := bigBatchBody(t, 8, 450)
	var streamBuf bytes.Buffer
	if status, msg, err := s1.BatchBodyStream(context.Background(), &streamBuf, streamReq); err != nil || status != 200 {
		t.Fatalf("stream: status %d msg %q err %v", status, msg, err)
	}
	wantStream := append([]byte(nil), streamBuf.Bytes()...)

	// Clean shutdown: drains the write-through queue and flushes whatever
	// the queue bound dropped. Everything served above is now on disk.
	s1.CloseSpill()

	s2 := newWriteThroughServer(t, dir)
	t.Cleanup(s2.CloseSpill)
	for i, q := range queries {
		status, body := s2.MeasureQuery(q)
		if status != 200 {
			t.Fatalf("restart query %d: status %d", i, status)
		}
		if !bytes.Equal(body, want[i]) {
			t.Fatalf("restart query %d diverged:\n got %q\nwant %q", i, body, want[i])
		}
	}
	status, got, msg := s2.BatchBody(batchReq)
	if status != 200 || !bytes.Equal(got, wantBatch) {
		t.Fatalf("restart batch diverged (status %d %s)", status, msg)
	}
	streamBuf.Reset()
	if status, msg, err := s2.BatchBodyStream(context.Background(), &streamBuf, streamReq); err != nil || status != 200 {
		t.Fatalf("restart stream: status %d msg %q err %v", status, msg, err)
	}
	if !bytes.Equal(streamBuf.Bytes(), wantStream) {
		t.Fatal("restart streamed batch diverged")
	}
	if evals := s2.MeasureEvals(); evals != 0 {
		t.Fatalf("restarted server ran %d evaluations, want 0", evals)
	}
	ss := s2.spillStats()
	if !ss.WriteThrough {
		t.Fatal("statz does not report write-through")
	}
	if ss.Hits == 0 {
		t.Fatal("restarted server reported no spill hits")
	}
}

// TestSpillRestartTornTailRecovery: a crash mid-append leaves a torn tail
// on the newest segment; reopening through the API layer must truncate it
// and still serve every fully committed response byte-identically with
// zero re-evaluations.
func TestSpillRestartTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s1 := newWriteThroughServer(t, dir)
	const n = 4
	queries := make([]string, n)
	want := make([][]byte, n)
	for i := range queries {
		queries[i] = fmt.Sprintf("profile=1,0.5,0.%03d", i+301)
		status, body := s1.MeasureQuery(queries[i])
		if status != 200 {
			t.Fatalf("query %d: status %d", i, status)
		}
		want[i] = body
	}
	s1.CloseSpill()

	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files (err %v)", err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A header-sized prefix of garbage: what a record interrupted by a
	// crash before its CRC and body made it to disk looks like.
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x40, 0, 0, 0, 0x40, 0, 0, 0, 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := newWriteThroughServer(t, dir)
	t.Cleanup(s2.CloseSpill)
	for i, q := range queries {
		status, body := s2.MeasureQuery(q)
		if status != 200 || !bytes.Equal(body, want[i]) {
			t.Fatalf("post-recovery query %d diverged (status %d)", i, status)
		}
	}
	if evals := s2.MeasureEvals(); evals != 0 {
		t.Fatalf("post-recovery server ran %d evaluations, want 0", evals)
	}
}

// rawRecords scans every segment under dir and counts the spill layer 'r'
// records by stored key length: below rawFastPathMinQuery (small) or not.
func rawRecords(t *testing.T, dir string) (small, large int) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range segs {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		spill.ScanRecords(f, fi.Size(), func(_ int64, _, _ uint32, key []byte) {
			if key[0] != layerRaw {
				return
			}
			if len(key)-1 < rawFastPathMinQuery {
				small++
			} else {
				large++
			}
		})
		f.Close()
	}
	return small, large
}

// TestSpillWriteSetEqualsReadSet: spill layer 'r' is only ever read for
// spellings of at least rawFastPathMinQuery bytes, so it is only ever
// written for them. Through the write-through insert, the evict sink and
// the shutdown flush alike, and the direct write of an entry too large for
// its shard, small spellings leave no 'r' record and the large one leaves
// exactly one. After a warm restart, the small queries —
// plain and respelled — are served from layer 'c' with zero evaluations.
func TestSpillWriteSetEqualsReadSet(t *testing.T) {
	small := []string{"profile=1,0.5,0.25", "profile=1,0.5,0.125&tau=0.01", "profile=0.75,1"}
	respelled := []string{"profile=1,5e-1,2.5e-1", "profile=1.0,0.50,0.1250&tau=1e-2", "profile=7.5e-1,1"}
	large := largeTestQuery(1024, 11)
	serve := func(s *Server, queries ...string) [][]byte {
		t.Helper()
		bodies := make([][]byte, len(queries))
		for i, q := range queries {
			status, body := s.MeasureQuery(q)
			if status != 200 {
				t.Fatalf("query %.60q: status %d", q, status)
			}
			bodies[i] = body
		}
		return bodies
	}
	open := func(dir string) *spill.Store {
		st, err := spill.Open(spill.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, path := range []string{"insert", "evict", "flush", "reject"} {
		t.Run(path, func(t *testing.T) {
			dir := t.TempDir()
			var s *Server
			switch path {
			case "insert":
				s = newWriteThroughServer(t, dir)
			case "evict":
				// Two entries per layer: every spelling is evicted by the
				// ones served after it, the large one included.
				s = NewServerWithCache(CacheConfig{Entries: 2, MaxBytes: -1, Shards: 1, Coalesce: true})
				s.EnableSpill(open(dir))
			case "flush":
				s = NewServerWithCache(CacheConfig{Entries: 256, MaxBytes: -1, Shards: 1, Coalesce: true})
				s.EnableSpill(open(dir))
			case "reject":
				// A 64-byte budget keeps no entry of any layer in memory.
				s = NewServerWithCache(CacheConfig{Entries: 256, MaxBytes: 64, Shards: 1, Coalesce: true})
				s.EnableSpill(open(dir))
			}
			serve(s, large)
			serve(s, small...)
			serve(s, respelled...)
			if path == "evict" && s.rawCache.counters().evicted < uint64(len(small)) {
				t.Fatal("spellings were not evicted; this case must exercise the evict sink")
			}
			if path == "reject" && s.rawCache.counters().rejected < uint64(len(small)) {
				t.Fatal("spellings were kept; this case must exercise the rejected-entry write")
			}
			if path == "flush" {
				s.flushResident(s.spill) // what CloseSpill runs in write-through mode
			}
			s.CloseSpill()
			if n, m := rawRecords(t, dir); n != 0 || m != 1 {
				t.Fatalf("'r' records: %d small, %d large; want 0 and 1", n, m)
			}
		})
	}

	dir := t.TempDir()
	s1 := newWriteThroughServer(t, dir)
	want := serve(s1, small...)
	s1.CloseSpill()
	s2 := newWriteThroughServer(t, dir)
	t.Cleanup(s2.CloseSpill)
	for _, queries := range [][]string{small, respelled} {
		for i, body := range serve(s2, queries...) {
			if !bytes.Equal(body, want[i]) {
				t.Fatalf("restart %q diverged:\n got %q\nwant %q", queries[i], body, want[i])
			}
		}
	}
	if evals := s2.MeasureEvals(); evals != 0 {
		t.Fatalf("restarted server ran %d evaluations, want 0", evals)
	}
	if hits := s2.spillStats().Hits; hits != uint64(len(small)) {
		t.Fatalf("restarted server: %d spill hits, want %d (one 'c' read per cluster)", hits, len(small))
	}
}
