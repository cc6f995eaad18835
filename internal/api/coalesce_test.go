package api

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetero/internal/stats"
)

// measureOutcome is one /v1/measure result in comparable form.
type measureOutcome struct {
	status int
	body   string
	msg    string
}

func measureOutcomeOf(s *Server, rawQuery string) measureOutcome {
	sc := measureScratchPool.Get().(*measureScratch)
	status, body, msg := s.measure(sc, rawQuery)
	measureScratchPool.Put(sc)
	return measureOutcome{status, string(body), msg}
}

// bigProfileVal renders a profile value long enough to engage the raw-query
// front layer (and with it the batcher's raw submission flavor).
func bigProfileVal(seed uint64, n int) string {
	rng := stats.NewRNG(seed)
	var sb strings.Builder
	sb.WriteString("1")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&sb, ",0.%03d", 1+rng.Uint64()%999)
	}
	return sb.String()
}

// coalesceQuerySet builds the golden-test traffic: small parsed-flavor
// queries (sensitivity sweeps over a shared profile, plus distinct
// profiles), large raw-flavor sweeps, spelling variants that unify at the
// canonical layer, error shapes at both flavors, and exact duplicates.
func coalesceQuerySet(t *testing.T) []string {
	t.Helper()
	shared := "1,0.5,0.25,0.125,0.0625"
	big1 := bigProfileVal(1, 900)
	big2 := bigProfileVal(2, 900)
	if len(big1) < rawFastPathMinQuery {
		t.Fatalf("big profile value too short to engage raw front: %d < %d",
			len(big1), rawFastPathMinQuery)
	}
	var qs []string
	for i := 0; i < 24; i++ {
		qs = append(qs, fmt.Sprintf("profile=%s&tau=0.%02d", shared, i+1))
	}
	rng := stats.NewRNG(3)
	for i := 0; i < 12; i++ {
		qs = append(qs, fmt.Sprintf("profile=1,0.%03d,0.%03d&pi=0.5",
			1+rng.Uint64()%999, 1+rng.Uint64()%999))
	}
	for i := 0; i < 12; i++ {
		big := big1
		if i%2 == 1 {
			big = big2
		}
		qs = append(qs, fmt.Sprintf("profile=%s&tau=0.%02d", big, i+1))
	}
	qs = append(qs,
		"profile="+shared+"&tau=0.0100", // same float as tau=0.01: canonical twin
		"profile="+shared+"&tau=0.01",
		"tau=0.1",                  // missing profile (parsed flavor)
		"profile=1,0.5&tau=abc",    // bad tau (parsed flavor)
		"profile=1,0.5,xyz",        // bad ρ (parsed flavor)
		"profile=1,2",              // ρ > 1 (parsed flavor)
		"profile="+big1+"&tau=abc", // bad tau (raw flavor)
		"profile=2,"+big1,          // ρ > 1 (raw flavor)
	)
	return append(qs, qs...) // exact duplicates ride the singleflight/hit paths
}

func truncOutcome(o measureOutcome) string {
	body := o.body
	if len(body) > 160 {
		body = body[:160] + "..."
	}
	return fmt.Sprintf("(%d, %q, %q)", o.status, body, o.msg)
}

// TestCoalescedMeasureByteIdentical is the golden gate the issue demands:
// with coalescing on, every response — success or error, parsed or raw
// flavor, hit or miss — must be byte-identical to the uncoalesced server's.
func TestCoalescedMeasureByteIdentical(t *testing.T) {
	qs := coalesceQuerySet(t)
	base := NewServer()
	want := make(map[string]measureOutcome, len(qs))
	for _, q := range qs {
		if _, ok := want[q]; !ok {
			want[q] = measureOutcomeOf(base, q)
		}
	}

	srv := NewServer()
	srv.EnableCoalesce(CoalesceConfig{MaxBatch: 16, MaxWait: time.Millisecond})
	defer srv.CloseCoalesce()

	const workers = 8
	errs := make(chan string, len(qs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += workers {
				q := qs[i]
				if got, exp := measureOutcomeOf(srv, q), want[q]; got != exp {
					name := q
					if len(name) > 80 {
						name = name[:80] + "..."
					}
					errs <- fmt.Sprintf("query %q:\n got %s\nwant %s",
						name, truncOutcome(got), truncOutcome(exp))
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	srv.CloseCoalesce()
	b := srv.batcher
	if b.submitted.Load() == 0 {
		t.Error("batcher accepted no submissions; the coalesced path was not exercised")
	}
	if sub, ans := b.submitted.Load(), b.answered.Load(); sub != ans {
		t.Errorf("submitted %d but answered %d: items lost or double-delivered", sub, ans)
	}
	if sub, fi := b.submitted.Load(), b.flushItems.Load(); sub != fi {
		t.Errorf("submitted %d but flushed %d items", sub, fi)
	}
	if b.rawSubmits.Load() == 0 {
		t.Error("no raw-flavor submissions; large queries did not reach the batcher")
	}
	if b.parseErrors.Load() == 0 {
		t.Error("no parse errors recorded; raw-flavor error queries did not reach the flush")
	}
}

// TestCoalesceCollapsesHerd pins the tentpole's core promise: a herd of
// distinct small queries collapses from N pool dispatches into ~N/flush-size
// coalesced flushes, visible in the statz counters.
func TestCoalesceCollapsesHerd(t *testing.T) {
	srv := NewServer()
	srv.EnableCoalesce(CoalesceConfig{MaxBatch: 32, MaxWait: 200 * time.Millisecond})
	defer srv.CloseCoalesce()

	const herd = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			q := fmt.Sprintf("profile=1,0.5,0.25&tau=0.%03d", i+1)
			if status, _ := srv.MeasureQuery(q); status != 200 {
				t.Errorf("query %d: status %d", i, status)
			}
		}(i)
	}
	close(start)
	wg.Wait()

	b := srv.batcher
	if got := b.submitted.Load(); got != herd {
		t.Fatalf("submitted = %d, want %d (distinct keys must all miss and submit)", got, herd)
	}
	if f := b.flushes.Load(); f > herd/4 {
		t.Errorf("herd of %d took %d flushes; want ≤ %d", herd, f, herd/4)
	}
	if mf := b.maxFlush.Load(); mf < herd/4 {
		t.Errorf("max flush = %d, want ≥ %d", mf, herd/4)
	}
	// Every item sweeps the same profile, so each flush holds one group.
	if g, f := b.groups.Load(), b.flushes.Load(); g != f {
		t.Errorf("groups = %d over %d flushes; the shared profile should form one group per flush", g, f)
	}
	if sh := b.sharedItems.Load(); sh < herd/2 {
		t.Errorf("shared items = %d, want ≥ %d", sh, herd/2)
	}
}

// TestCoalesceCloseAnswersPending pins the drain contract: items accepted
// before Close are flushed and answered (status 200), Close returns only
// after, and later submissions fall back inline instead of failing.
func TestCoalesceCloseAnswersPending(t *testing.T) {
	srv := NewServer()
	srv.EnableCoalesce(CoalesceConfig{MaxBatch: 64, MaxWait: 50 * time.Millisecond})

	const pending = 3
	results := make(chan int, pending)
	for i := 0; i < pending; i++ {
		go func(i int) {
			status, _ := srv.MeasureQuery(fmt.Sprintf("profile=1,0.5&tau=0.%d", i+1))
			results <- status
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.batcher.submitted.Load() < pending {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d submissions accepted", srv.batcher.submitted.Load(), pending)
		}
		time.Sleep(100 * time.Microsecond)
	}

	closed := make(chan struct{})
	go func() { srv.CloseCoalesce(); close(closed) }()
	for i := 0; i < pending; i++ {
		select {
		case status := <-results:
			if status != 200 {
				t.Errorf("pending item answered with status %d", status)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("pending item not answered during drain")
		}
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("CloseCoalesce did not return")
	}
	if ans := srv.batcher.answered.Load(); ans != pending {
		t.Errorf("answered = %d, want %d", ans, pending)
	}

	// After the drain the inline fallback serves new traffic.
	if status, _ := srv.MeasureQuery("profile=1,0.5&tau=0.9"); status != 200 {
		t.Errorf("post-drain request: status %d", status)
	}
	if srv.batcher.fallbacks.Load() == 0 {
		t.Error("post-drain request did not record an inline fallback")
	}
}

// TestCoalesceStressDelivery races many clients against flush timers, tiny
// queues (forcing inline fallbacks), a tiny cache (forcing steady misses),
// and a concurrent drain. Every request must return the exact uncoalesced
// outcome, and the counters must prove exactly-once delivery: each accepted
// submission answered exactly once. Run it under -race to check the scratch
// aliasing and drain protocols.
func TestCoalesceStressDelivery(t *testing.T) {
	big := bigProfileVal(7, 900)
	var queries []string
	for i := 0; i < 16; i++ {
		queries = append(queries, fmt.Sprintf("profile=1,0.5,0.25,0.125&tau=0.%02d", i+1))
	}
	rng := stats.NewRNG(9)
	for i := 0; i < 8; i++ {
		queries = append(queries, fmt.Sprintf("profile=1,0.%03d&delta=0.5", 1+rng.Uint64()%999))
	}
	for i := 0; i < 6; i++ {
		queries = append(queries, fmt.Sprintf("profile=%s&tau=0.%02d", big, i+1))
	}
	queries = append(queries,
		"profile=1,0.5&tau=abc",
		"profile=1,3",
		"profile="+big+"&pi=abc",
	)

	base := NewServer()
	want := make(map[string]measureOutcome, len(queries))
	for _, q := range queries {
		want[q] = measureOutcomeOf(base, q)
	}

	// Cache of 8 entries over ~30 distinct keys: evictions keep the miss —
	// and with it the batcher — hot for the whole run.
	srv := NewServerCacheSize(8)
	srv.EnableCoalesce(CoalesceConfig{MaxBatch: 4, MaxWait: 200 * time.Microsecond, Queue: 8})

	const (
		workers = 16
		iters   = 40
	)
	var done atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := queries[(w*31+i*7)%len(queries)]
				if got, exp := measureOutcomeOf(srv, q), want[q]; got != exp {
					select {
					case errs <- fmt.Sprintf("worker %d iter %d:\n got %s\nwant %s",
						w, i, truncOutcome(got), truncOutcome(exp)):
					default:
					}
				}
				// One worker drains the batcher mid-run; everything after
				// falls back inline and must stay byte-identical.
				if w == 0 && i == iters/2 {
					srv.CloseCoalesce()
				}
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	b := srv.batcher
	if sub, ans := b.submitted.Load(), b.answered.Load(); sub != ans {
		t.Errorf("submitted %d but answered %d: items lost or double-delivered", sub, ans)
	}
	if sub, fi := b.submitted.Load(), b.flushItems.Load(); sub != fi {
		t.Errorf("submitted %d but flushed %d items", sub, fi)
	}
	if b.submitted.Load() == 0 {
		t.Error("stress run never reached the batcher")
	}
	if total := done.Load(); total != workers*iters {
		t.Errorf("completed %d of %d requests", total, workers*iters)
	}
}

// TestCoalesceSmallQueriesSubmitParsed: with the spelling front consulted
// at every size, small queries still reach the admission batcher only
// after the parse. A herd mixing two spellings of one small profile
// evaluates once and serves identical bytes, and raw_submitted stays 0
// until a spelling of at least rawFastPathMinQuery bytes arrives.
func TestCoalesceSmallQueriesSubmitParsed(t *testing.T) {
	srv := NewServer()
	srv.EnableCoalesce(CoalesceConfig{MaxBatch: 32, MaxWait: 20 * time.Millisecond})
	defer srv.CloseCoalesce()

	spellings := []string{"profile=1,0.5,0.25", "profile=1,5e-1,2.5e-1"}
	const herd = 16
	bodies := make([]string, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := measureOutcomeOf(srv, spellings[i%2])
			if o.status != 200 {
				t.Errorf("query %d: %s", i, truncOutcome(o))
			}
			bodies[i] = o.body
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if b != bodies[0] {
			t.Fatalf("spelling %q served different bytes:\n got %.120q\nwant %.120q", spellings[i%2], b, bodies[0])
		}
	}
	if evals := srv.MeasureEvals(); evals != 1 {
		t.Fatalf("two spellings of one profile evaluated %d times, want 1", evals)
	}
	co := statzOf(t, srv).Coalesce
	if co.Submitted != 1 || co.RawSubmitted != 0 {
		t.Fatalf("small queries: submitted %d, raw_submitted %d; want 1 and 0", co.Submitted, co.RawSubmitted)
	}

	if o := measureOutcomeOf(srv, "profile="+bigProfileVal(4, 900)); o.status != 200 {
		t.Fatalf("large query: %s", truncOutcome(o))
	}
	if co := statzOf(t, srv).Coalesce; co.RawSubmitted != 1 {
		t.Fatalf("large query: raw_submitted %d, want 1", co.RawSubmitted)
	}
}
