package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hetero/internal/api"
	"hetero/internal/core"
	"hetero/internal/experiments"
	"hetero/internal/harness"
	"hetero/internal/incr"
	"hetero/internal/model"
	"hetero/internal/profile"
	"hetero/internal/spill"
	"hetero/internal/workload"
)

// The traced run calls each layer's public functions in process, inside
// spans recorded from the benchmark's own code, and derives the per-layer
// timings from the spans' self times. It runs after the workload (whose
// /v1/statz counts it joins) and writes its spans to a trace file.

// coreForms are the X evaluation routes the production X form is chosen
// from.
var coreForms = []struct {
	name string
	eval func(model.Params, profile.Profile) float64
}{
	{"x", core.X},
	{"x_direct", core.XDirect},
	{"log_product", core.LogProductRatios},
	{"x_chunked", func(m model.Params, p profile.Profile) float64 { return core.XChunked(m, p, 0) }},
}

var coreSizes = []int{64, 8192, 65536}

func coreMetric(form string, n int) string {
	return fmt.Sprintf("core.%s.n%d.ns_per_rho", form, n)
}

// sink keeps results alive so calls under measurement are not optimised
// away.
var sink float64

// randomProfile draws n full-precision ρ-values in (0, 1].
func randomProfile(r *rand.Rand, n int) profile.Profile {
	p := make(profile.Profile, n)
	for i := range p {
		p[i] = 1 - r.Float64()
	}
	return p
}

func runTracedSuite(cfg config, rep *runReport) error {
	t := newTracer()
	r := rand.New(rand.NewSource(cfg.seed))
	m := model.Table1()
	reps := cfg.size.traceReps
	lm := rep.layer
	set := func(name string, v float64, unit string) { lm[name] = metric{v, unit} }

	// core: ns per ρ of each X form, over batches of calls worth ~1M ρ.
	for _, n := range coreSizes {
		p := randomProfile(r, n)
		calls := max(1, (1<<20)/n)
		for _, f := range coreForms {
			name := coreMetric(f.name, n)
			for k := 0; k < 3*reps; k++ {
				t.call(name, -1, t.newOp(), func() {
					for c := 0; c < calls; c++ {
						sink += f.eval(m, p)
					}
				})
			}
			set(name, median(t.durations(name))/float64(calls*n), "ns/rho")
		}
	}

	// api.CanonicalKey and incr.MeasureProfile over measure_miss's size range.
	var keyNs, keyRhos float64
	for _, n := range shuffledLogSizes(r, 32*reps, cfg.size.missMinN, cfg.size.missMaxN) {
		p := randomProfile(r, n)
		i := t.call("api.CanonicalKey", -1, t.newOp(), func() { sink += float64(len(api.CanonicalKey(m, p))) })
		keyNs += float64(t.spans[i].End - t.spans[i].Start)
		keyRhos += float64(n)
	}
	set("api.canonical_key_ns_per_rho", keyNs/keyRhos, "ns/rho")
	for _, c := range []struct {
		class   string
		n       int
		workers int // as the measure path picks them
	}{{"small", 1024, 1}, {"large", 65536, 0}} {
		p := randomProfile(r, c.n)
		name := "incr.MeasureProfile." + c.class
		calls := max(1, (1<<20)/c.n)
		for k := 0; k < 3*reps; k++ {
			t.call(name, -1, t.newOp(), func() {
				for i := 0; i < calls; i++ {
					sink += incr.MeasureProfile(m, p, c.workers).X
				}
			})
		}
		set("incr.measure_profile_ns_per_rho."+c.class, median(t.durations(name))/float64(calls*c.n), "ns/rho")
	}

	// incr batch engine on batch_sweep's body shapes.
	for _, k := range cfg.size.batchKs {
		profiles := make([]profile.Profile, k)
		for i := range profiles {
			profiles[i] = randomProfile(r, cfg.size.batchUnits/k)
		}
		for i := 0; i < reps; i++ {
			op := t.newOp()
			t.call("incr.ScheduleBatch", -1, op, func() { sink += float64(len(incr.ScheduleBatch(profiles, 0).Large)) })
			t.call("incr.BatchMeasureFull", -1, op, func() { sink += incr.BatchMeasureFull(m, profiles, 0)[0].X })
		}
	}
	set("incr.schedule_batch_us", median(t.durations("incr.ScheduleBatch"))/1e3, "us")
	set("incr.batch_measure_full_ms", median(t.durations("incr.BatchMeasureFull"))/1e6, "ms")

	if err := traceServer(cfg, t, r, set); err != nil {
		return err
	}
	if err := traceSpill(cfg, t, r, set); err != nil {
		return err
	}
	if err := traceExperiments(t, reps, set); err != nil {
		return err
	}
	set("trace.overhead_frac", traceOverhead(r), "ratio")

	path, err := t.write(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err != nil {
		return err
	}
	rep.meta["trace_file"] = path
	rep.meta["trace_spans"] = len(t.spans)
	return nil
}

// traceServer drives an in-process api.Server configured like the
// benchmark's heterod (same memory budget, spill with write-through).
func traceServer(cfg config, t *tracer, r *rand.Rand, set func(string, float64, string)) error {
	dir, err := newSpillDir(cfg, "trace")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := spill.Open(spill.Config{Dir: dir})
	if err != nil {
		return err
	}
	srv := api.NewServerWithCache(api.CacheConfig{
		Entries: cfg.size.cacheEntries, MaxBytes: cfg.size.cacheBytes, Coalesce: true, Adaptive: true,
	})
	srv.EnableSpillOptions(st, api.SpillOptions{WriteThrough: true})
	defer srv.CloseSpill()
	m := model.Table1()
	reps := cfg.size.traceReps

	// Misses: first-seen profiles over measure_miss's size range. The
	// evaluation and the spill lookup inside each miss are replayed beside
	// it as child spans, so the miss's self time is the api layer's share.
	var hitQueries []string
	for i, n := range shuffledLogSizes(r, 64*reps, cfg.size.missMinN, cfg.size.missMaxN) {
		toks := profileTokens(r, n)
		q := measureQuery(toks)
		p, err := parseTokens(toks)
		if err != nil {
			return err
		}
		op := t.newOp()
		var status int
		parent := t.call("api.MeasureQuery.miss", -1, op, func() { status, _ = srv.MeasureQuery(q) })
		if status != 200 {
			return fmt.Errorf("MeasureQuery miss answered %d", status)
		}
		workers := 1
		if n >= incr.ScheduleLargeCutover {
			workers = 0
		}
		t.call("incr.MeasureProfile", parent, op, func() { sink += incr.MeasureProfile(m, p, workers).X })
		t.call("spill.Get", parent, op, func() { _, _ = st.Get(fmt.Sprintf("absent-%d-%d", i, n)) })
		if n <= cfg.size.hotMaxN && len(hitQueries) < 16 {
			hitQueries = append(hitQueries, q)
		}
	}
	// Hits: the small profiles again, now resident in memory.
	for k := 0; k < 64*reps; k++ {
		for _, q := range hitQueries {
			srv.MeasureQuery(q) // promote back to memory if evicted meanwhile
			t.call("api.MeasureQuery.hit", -1, t.newOp(), func() { srv.MeasureQuery(q) })
		}
	}
	for _, c := range []string{"hit", "miss"} {
		d := t.durations("api.MeasureQuery." + c)
		set("api.measure_query_us."+c+".p50", quantileOf(d, 0.5)/1e3, "us")
		set("api.measure_query_us."+c+".p99", quantileOf(d, 0.99)/1e3, "us")
	}
	set("api.measure_self_us.p50", quantileOf(t.selfDurations("api.MeasureQuery.miss"), 0.5)/1e3, "us")

	// HTTP overhead: the loopback round trip of a hit minus the handler's
	// own time for the same request.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	c := &client{addr: ln.Addr().String()}
	defer c.close()
	h := srv.Handler()
	for k := 0; k < 64*reps; k++ {
		for _, q := range hitQueries {
			req := getRequest(q)
			op := t.newOp()
			var status int
			t.call("http.RoundTrip", -1, op, func() { status, _, err = c.do(req, opTimeout) })
			if err != nil || status != 200 {
				return fmt.Errorf("loopback round trip: status %d, %v", status, err)
			}
			hr := httptest.NewRequest(http.MethodGet, "/v1/measure?"+q, nil)
			rec := httptest.NewRecorder()
			t.call("api.Handler", -1, op, func() { h.ServeHTTP(rec, hr) })
		}
	}
	set("http.overhead_us.p50", (quantileOf(t.durations("http.RoundTrip"), 0.5)-quantileOf(t.durations("api.Handler"), 0.5))/1e3, "us")

	// Streamed batches: a fresh body (decode, evaluate, stream, tee into
	// spill), then the same body again (served from spill).
	bs, _, err := newBatchSource(cfg.size, r.Int63(), refServer())
	if err != nil {
		return err
	}
	var scratch []byte
	for j := 0; j < len(bs.reqs)*reps; j++ {
		req := bs.freshRequest(j, &scratch)
		body := append([]byte(nil), req[bs.hdrLen[j%len(bs.reqs)]:]...)
		var sums [2]digest
		for k, class := range []string{"fresh", "spill"} {
			var d digestWriter
			var status int
			var serr error
			t.call("api.BatchBodyStream."+class, -1, t.newOp(), func() {
				status, _, serr = srv.BatchBodyStream(context.Background(), &d, body)
			})
			if status != 200 || serr != nil {
				return fmt.Errorf("BatchBodyStream %s: status %d, %v", class, status, serr)
			}
			sums[k] = d.sum()
		}
		if sums[0] != sums[1] {
			return fmt.Errorf("batch served from spill differs from the fresh stream")
		}
	}
	for _, class := range []string{"fresh", "spill"} {
		set("api.batch_stream_ms."+class, median(t.durations("api.BatchBodyStream."+class))/1e6, "ms")
	}
	return nil
}

// parseTokens turns ρ tokens back into a profile.
func parseTokens(toks []string) (profile.Profile, error) {
	p := make(profile.Profile, len(toks))
	for i, tok := range toks {
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, err
		}
		p[i] = v
	}
	return p, nil
}

// traceSpill times the spill store's point and streamed paths directly.
func traceSpill(cfg config, t *tracer, r *rand.Rand, set func(string, float64, string)) error {
	dir, err := newSpillDir(cfg, "trace-spill")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := spill.Open(spill.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer st.Close()
	// Point entries shaped like measure_miss's canonical entries.
	var keys []string
	for i, n := range shuffledLogSizes(r, 256*cfg.size.traceReps, cfg.size.missMinN, cfg.size.missMaxN) {
		key := fmt.Sprintf("c%08d|%s", i, strings.Repeat("k", 25*n))
		body := bytes.Repeat([]byte("b"), 19*n)
		ok := true
		t.call("spill.Put", -1, t.newOp(), func() { ok = st.Put(key, body) })
		if !ok {
			return fmt.Errorf("spill Put of %d bytes failed", len(key)+len(body))
		}
		keys = append(keys, key)
	}
	for _, key := range keys {
		ok := true
		t.call("spill.Get", -1, t.newOp(), func() { _, ok = st.Get(key) })
		if !ok {
			return fmt.Errorf("spill Get missed a stored key")
		}
	}
	set("spill.put_us.p50", quantileOf(t.durations("spill.Put"), 0.5)/1e3, "us")
	// The replayed misses of traceServer share the name; only this store's
	// spans are roots.
	var gets []float64
	for _, s := range t.spans {
		if s.Name == "spill.Get" && s.Parent < 0 {
			gets = append(gets, float64(s.End-s.Start))
		}
	}
	set("spill.get_us.p50", quantileOf(gets, 0.5)/1e3, "us")

	// Streamed records the size of a batch_sweep response, written in the
	// server's 64 KiB fragments and read back the way a spill hit is served.
	size := cfg.size.batchUnits * 6
	chunk := bytes.Repeat([]byte("0.437,"), (64<<10)/6)
	buf := make([]byte, 64<<10)
	var appendMBs, streamMBs []float64
	for k := 0; k < 2*cfg.size.traceReps; k++ {
		key := fmt.Sprintf("b-stream-%d", k)
		op := t.newOp()
		var ok bool
		i := t.call("spill.Append", -1, op, func() {
			ap := st.Begin(key)
			if ap == nil {
				return
			}
			for w := 0; w < size; w += len(chunk) {
				ap.Write(chunk)
			}
			ok = ap.Commit()
		})
		if !ok {
			return fmt.Errorf("spill append of %d bytes failed", size)
		}
		appendMBs = append(appendMBs, float64(size)/1e6/(float64(t.spans[i].End-t.spans[i].Start)/1e9))
		var n int64
		i = t.call("spill.Stream", -1, op, func() {
			ent, found := st.OpenVerified(key)
			if !found {
				return
			}
			defer ent.Close()
			for n < ent.BodyLen() {
				got, err := ent.ReadBodyAt(buf, n)
				n += int64(got)
				if err != nil && err != io.EOF || got == 0 {
					break
				}
			}
		})
		if n < int64(size) {
			return fmt.Errorf("spill stream read %d of %d bytes", n, size)
		}
		streamMBs = append(streamMBs, float64(n)/1e6/(float64(t.spans[i].End-t.spans[i].Start)/1e9))
	}
	set("spill.append_mb_s", median(appendMBs), "MB/s")
	set("spill.stream_mb_s", median(streamMBs), "MB/s")
	return nil
}

// traceExperiments times the costly steps of `hetero all`, called through
// the experiments and harness functions with the arguments `all` uses.
func traceExperiments(t *tracer, reps int, set func(string, float64, string)) error {
	m := model.Table1()
	steps := map[string]func() error{
		"variance": func() error {
			sizes := []int{4, 8, 16, 32, 64, 128, 256, 512, 1024}
			_, err := experiments.VariancePredictor(experiments.VarianceConfig{Params: m, Sizes: sizes, TrialsPerSize: 400, Seed: 20100419})
			return err
		},
		"threshold": func() error {
			cfg := experiments.VarianceConfig{Params: m, Sizes: []int{4, 16, 64, 256, 1024}, TrialsPerSize: 200, Seed: 20100419}
			_, err := experiments.VarianceThreshold(cfg, experiments.PaperTheta)
			return err
		},
		"predictors": func() error { _, err := experiments.PredictorRace(m, 8, 300, 300, 77); return err },
		"moments":    func() error { _, err := experiments.MomentPredictors(m, 8, 2000, 99); return err },
		"jitter": func() error {
			_, err := experiments.JitterRobustness(m, profile.Linear(8), 1000, []float64{0, 0.01, 0.05, 0.1, 0.2}, 50)
			return err
		},
		"execute": func() error {
			task, err := workload.ByName("montecarlo", 1)
			if err != nil {
				return err
			}
			rep, err := harness.RunFIFO(m, profile.MustNew(1, 0.5, 0.25), task, 100)
			if err != nil {
				return err
			}
			return rep.VerifySequential(task)
		},
		"replicate": func() error {
			_, err := experiments.Replicate(experiments.ReplicationConfig{VarianceTrials: 200, Seed: 20100419})
			return err
		},
	}
	for _, name := range experimentSteps {
		for k := 0; k < reps; k++ {
			var err error
			t.call("experiments."+name, -1, t.newOp(), func() { err = steps[name]() })
			if err != nil {
				return fmt.Errorf("experiments step %s: %w", name, err)
			}
		}
		set("experiments."+name+"_ms", median(t.durations("experiments."+name))/1e6, "ms")
	}
	return nil
}

// traceOverhead replays the same calls with span recording off and on,
// alternating, and returns the traced replay's median wall time over the
// untraced one's, minus 1.
func traceOverhead(r *rand.Rand) float64 {
	m := model.Table1()
	small := randomProfile(r, 64)
	mid := randomProfile(r, 1024)
	replay := func(on bool) time.Duration {
		t := &tracer{on: on, t0: time.Now()}
		start := time.Now()
		for k := 0; k < 2000; k++ {
			op := t.newOp()
			parent := t.call("api.CanonicalKey", -1, op, func() { sink += float64(len(api.CanonicalKey(m, small))) })
			t.call("incr.MeasureProfile", parent, op, func() { sink += incr.MeasureProfile(m, mid, 1).X })
			for _, f := range coreForms[:3] {
				t.call("core", parent, op, func() { sink += f.eval(m, small) })
			}
		}
		return time.Since(start)
	}
	var on, off []float64
	for k := 0; k < 5; k++ {
		runtime.GC()
		off = append(off, float64(replay(false)))
		runtime.GC()
		on = append(on, float64(replay(true)))
	}
	return median(on)/median(off) - 1
}
