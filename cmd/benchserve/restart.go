package main

// The restart regime certifies the spill tier's write-through durability
// mode (internal/api EnableSpillOptions + the shutdown flush): a server
// that served a working set, drained, and restarted over the same spill
// directory must re-serve that working set from disk — byte-identically
// and without re-evaluating it.
//
// Per sample: a fresh write-through server over a fresh spill dir is
// populated with K distinct point queries (recording every body) plus one
// large streamed /v1/batch body, then shut down via CloseSpill (draining
// the write-through queue and flushing still-resident entries). A second
// server with an empty memory tier reopens the same directory and replays
// the identical traffic. The certificate claims, from raw per-sample
// counters:
//
//   - restart: the share of the K keys the reopened server answered
//     without re-evaluating (K − MeasureEvals), summed over the samples,
//     ≥ restartHitThreshold;
//   - restart.spill_hits: in every sample the reopened server's spill-hit
//     counter covers every key it did not re-evaluate (the answers came
//     from the reopened segments, not from some other warm path).
//
// Byte identity is a precondition: every replayed response — point and
// streamed batch — must equal the populate-time bytes exactly (divergence
// panics, so a certificate cannot exist for a byte-unfaithful restart).

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hetero/internal/api"
	"hetero/internal/benchcert"
	"hetero/internal/spill"
)

// restartHitThreshold is the certified floor for the fraction of
// previously served keys a restarted server answers without re-evaluation.
const restartHitThreshold = 0.9

// restartSamples sits above the benchcert.MinSamples floor, like
// sweepSamples and fleetSamples.
const restartSamples = 7

type restartSizes struct {
	keys    int // distinct point queries K per sample
	samples int
}

func restartDefaultSizes(quick bool) restartSizes {
	if quick {
		return restartSizes{keys: 16, samples: 2}
	}
	return restartSizes{keys: 64, samples: restartSamples}
}

// newRestartServer opens (or reopens) the spill store under dir in
// write-through mode on a fresh server. The memory byte budget is modest
// on purpose: part of the working set evicts (reaching disk the PR-9 way)
// and part stays resident (reaching disk only via write-through and the
// shutdown flush), so a certificate covers both durability routes.
func newRestartServer(dir string) *api.Server {
	st, err := spill.Open(spill.Config{Dir: dir})
	if err != nil {
		panic(fmt.Sprintf("benchserve: restart spill store: %v", err))
	}
	s := api.NewServerWithCache(api.CacheConfig{Entries: 256, MaxBytes: 256 << 10, Coalesce: true})
	s.EnableSpillOptions(st, api.SpillOptions{WriteThrough: true})
	return s
}

func restartQuery(i int) string {
	return fmt.Sprintf("profile=1,0.5,0.%03d&pi=0.0%03d", i%899+101, i)
}

// runRestart runs the paired populate → drain → reopen → replay samples
// and builds the restart claims.
func runRestart(quick bool) (RegimeResult, []benchcert.Claim) {
	sz := restartDefaultSizes(quick)
	tmp, err := os.MkdirTemp("", "benchserve-restart-")
	if err != nil {
		panic(fmt.Sprintf("benchserve: restart tempdir: %v", err))
	}
	defer os.RemoveAll(tmp)

	streamBody := sweepBodies(1, 1024)[0]
	var keys, answered, spillHits []float64
	var populateNs, replayNs int64
	var lastLats []time.Duration
	for k := 0; k < sz.samples; k++ {
		dir := filepath.Join(tmp, fmt.Sprintf("s%d", k))

		// Populate: every key evaluates once; write-through carries the
		// bodies to disk as they are admitted.
		s1 := newRestartServer(dir)
		want := make([][]byte, sz.keys)
		t0 := time.Now()
		for i := range want {
			status, body := s1.MeasureQuery(restartQuery(i))
			if status != 200 {
				panic(fmt.Sprintf("benchserve: restart populate key %d: status %d", i, status))
			}
			want[i] = body
		}
		populateNs += time.Since(t0).Nanoseconds()
		if evals := s1.MeasureEvals(); evals != uint64(sz.keys) {
			panic(fmt.Sprintf("benchserve: restart populate ran %d evals for %d keys", evals, sz.keys))
		}
		golden := &sweepHashWriter{}
		if status, msg, err := s1.BatchBodyStream(context.Background(), golden, streamBody); status != 200 || err != nil {
			panic(fmt.Sprintf("benchserve: restart populate stream: status %d msg %q err %v", status, msg, err))
		}
		s1.CloseSpill() // drain the queue, flush residents, fsync the segments closed

		// Replay against an empty memory tier over the reopened segments.
		s2 := newRestartServer(dir)
		lats := make([]time.Duration, 0, sz.keys)
		t1 := time.Now()
		for i := range want {
			lt := time.Now()
			status, body := s2.MeasureQuery(restartQuery(i))
			lats = append(lats, time.Since(lt))
			if status != 200 {
				panic(fmt.Sprintf("benchserve: restart replay key %d: status %d", i, status))
			}
			if !bytes.Equal(body, want[i]) {
				panic(fmt.Sprintf("benchserve: restart replay key %d diverged from the populate-time bytes", i))
			}
		}
		replayNs += time.Since(t1).Nanoseconds()
		replayed := &sweepHashWriter{}
		if status, msg, err := s2.BatchBodyStream(context.Background(), replayed, streamBody); status != 200 || err != nil {
			panic(fmt.Sprintf("benchserve: restart replay stream: status %d msg %q err %v", status, msg, err))
		}
		if replayed.h != golden.h || replayed.n != golden.n {
			panic("benchserve: restart replay streamed batch diverged from the populate-time bytes")
		}

		re := s2.MeasureEvals()
		st := s2.SpillStatsNow()
		if !st.WriteThrough {
			panic("benchserve: restart server does not report write-through")
		}
		keys = append(keys, float64(sz.keys))
		answered = append(answered, float64(sz.keys)-float64(re))
		spillHits = append(spillHits, float64(st.Hits))
		s2.CloseSpill()
		lastLats = lats
		fmt.Fprintf(os.Stderr, "benchserve: restart sample %d/%d: keys=%d reevals=%d spill_hits=%d\n",
			k+1, sz.samples, sz.keys, re, st.Hits)
	}

	totalKeys := float64(sz.keys * sz.samples)
	tuned := loadStats{ops: sz.keys, latencies: lastLats}
	r := RegimeResult{
		Name:              "restart",
		Requests:          2 * (sz.keys + 1) * sz.samples,
		BaselineOpsPerSec: totalKeys * float64(time.Second) / float64(populateNs),
		TunedOpsPerSec:    totalKeys * float64(time.Second) / float64(replayNs),
		TunedP50Ms:        tuned.percentileMs(50),
		TunedP99Ms:        tuned.percentileMs(99),
	}
	return r, []benchcert.Claim{
		benchcert.NewClaim("restart", benchcert.RatioOfSums, benchcert.AtLeast, restartHitThreshold, answered, keys),
		benchcert.NewClaim("restart.spill_hits", benchcert.Worst, benchcert.AtLeast, 1, spillHits, answered),
	}
}
