package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"
)

// The self-checks run every workload at tinySize against a heterod built
// from this checkout and assert, from /v1/statz deltas over the timed phase,
// that each workload exercises the layers its README entry says it does.

var bins struct {
	heterod, hetero string
	err             error
}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-bin-")
	if err != nil {
		panic(err)
	}
	bins.heterod, bins.hetero = filepath.Join(dir, "heterod"), filepath.Join(dir, "hetero")
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/heterod", "./cmd/hetero")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		bins.err = err
		os.Stderr.Write(out)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func tinyConfig(t *testing.T, workload string) config {
	t.Helper()
	if bins.err != nil {
		t.Fatalf("building heterod and hetero: %v", bins.err)
	}
	return config{
		workload: workload, seed: 7, seconds: 1,
		heterod: bins.heterod, hetero: bins.hetero,
		goldens: filepath.Join("..", "cmd", "hetero", "testdata"),
		out:     t.TempDir(), size: tinySize,
	}
}

func serveTiny(t *testing.T, workload string) *servingRun {
	t.Helper()
	cfg := tinyConfig(t, workload)
	sr, _, err := serve(cfg, min(runtime.NumCPU(), 2))
	if err != nil {
		t.Fatal(err)
	}
	if sr.failed != 0 || sr.mismatch != 0 {
		t.Fatalf("%d failed ops, %d differ from the reference", sr.failed, sr.mismatch)
	}
	if len(sr.timed.records) == 0 {
		t.Fatal("timed phase sent no request")
	}
	return sr
}

func TestMeasureHotMakesNoEvaluationsOrSpillReads(t *testing.T) {
	sr := serveTiny(t, "measure_hot")
	b, a := sr.before, sr.after
	if d := delta(a.Cluster.LocalEvals, b.Cluster.LocalEvals); d != 0 {
		t.Errorf("timed phase made %d evaluations, want 0", d)
	}
	if d := delta(a.Spill.Hits, b.Spill.Hits) + delta(a.Spill.Misses, b.Spill.Misses); d != 0 {
		t.Errorf("timed phase made %d spill reads, want 0", d)
	}
	ops := uint64(len(sr.timed.records))
	if hits := delta(a.MeasureCache.Hits, b.MeasureCache.Hits); hits != ops {
		t.Errorf("memory hits %d, want one per op (%d)", hits, ops)
	}
	if sr.classCounts["respelled"] == 0 || delta(a.MeasureCache.RawHits, b.MeasureCache.RawHits) == 0 {
		t.Errorf("want respelled queries and raw-front hits, got %v and %d raw hits",
			sr.classCounts, delta(a.MeasureCache.RawHits, b.MeasureCache.RawHits))
	}
}

func TestMeasureMissNeverHitsMemory(t *testing.T) {
	sr := serveTiny(t, "measure_miss")
	b, a := sr.before, sr.after
	if hits := delta(a.MeasureCache.Hits, b.MeasureCache.Hits) + delta(a.MeasureCache.Coalesced, b.MeasureCache.Coalesced); hits != 0 {
		t.Errorf("memory hits %d, want 0", hits)
	}
	evals := delta(a.Cluster.LocalEvals, b.Cluster.LocalEvals)
	spillHits := delta(a.Spill.Hits, b.Spill.Hits)
	ops := uint64(len(sr.timed.records))
	if evals+spillHits != ops {
		t.Errorf("evaluations %d + spill hits %d = %d, want one per op (%d)", evals, spillHits, evals+spillHits, ops)
	}
	if fresh := uint64(sr.classCounts["fresh"]); evals != fresh || fresh == 0 {
		t.Errorf("evaluations %d, want exactly the fresh ops (%d)", evals, fresh)
	}
}

func TestBatchSweepRepeatsAreSpillHits(t *testing.T) {
	sr := serveTiny(t, "batch_sweep")
	b, a := sr.before, sr.after
	repeats, fresh := uint64(sr.classCounts["repeat"]), uint64(sr.classCounts["fresh"])
	if hits := delta(a.Spill.Hits, b.Spill.Hits); hits != repeats || repeats == 0 {
		t.Errorf("spill hits %d, want one per repeat body (%d)", hits, repeats)
	}
	if misses := delta(a.Spill.Misses, b.Spill.Misses); misses != fresh {
		t.Errorf("spill misses %d, want one per fresh body (%d)", misses, fresh)
	}
	if streamed, reqs := delta(a.Batch.Streamed, b.Batch.Streamed), delta(a.Batch.Requests, b.Batch.Requests); streamed != reqs || streamed != repeats+fresh {
		t.Errorf("streamed %d of %d batch requests, want all %d", streamed, reqs, repeats+fresh)
	}
	if d := delta(a.Cluster.LocalEvals, b.Cluster.LocalEvals); d != 0 {
		t.Errorf("batch_sweep made %d /v1/measure evaluations, want 0", d)
	}
}

func TestReproducePassesMatchReference(t *testing.T) {
	rep, err := runReproduce(tinyConfig(t, "reproduce"), min(runtime.NumCPU(), 2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || rep.attempted < 1 {
		t.Fatalf("%d of %d passes failed", rep.failed, rep.attempted)
	}
	if missing := missingMetrics(rep.e2e, endToEndMetrics); len(missing) > 0 {
		t.Fatalf("missing metrics %v", missing)
	}
}

// A response that differs from its reference must count as a failed op.
func TestWrongBytesFail(t *testing.T) {
	cfg := tinyConfig(t, "measure_hot")
	_, warm, err := newServingSource(cfg, refServer())
	if err != nil {
		t.Fatal(err)
	}
	warm.refs[0]++
	dir, err := newSpillDir(cfg, "wrong")
	if err != nil {
		t.Fatal(err)
	}
	p, err := startHeterod(cfg.heterod, heterodArgs(cfg.size, dir), dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.stop()
	ph := runClosedLoop(p.addr, 1, warm, len(warm.reqs), 0)
	failed, mismatches, err := verify(&ph, warm)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 || mismatches != 1 {
		t.Fatalf("failed %d, mismatches %d; want 1 and 1", failed, mismatches)
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	cfg := tinyConfig(t, "measure_miss")
	rep := &runReport{layer: statzLayerMetrics(statz{}, statz{}, 1), meta: map[string]any{}}
	rep.layer["bench.gen_cpu_share"] = metric{0, "ratio"}
	rep.layer["host.steal_ticks"] = metric{0, "count"}
	if err := runTracedSuite(cfg, rep); err != nil {
		t.Fatal(err)
	}
	if missing := missingMetrics(rep.layer, perLayerMetrics); len(missing) > 0 {
		t.Fatalf("missing metrics %v", missing)
	}
	if _, err := os.Stat(rep.meta["trace_file"].(string)); err != nil {
		t.Fatalf("trace file: %v", err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "nested", Start: 10, End: 30, Parent: 0},
		{Name: "overlapping", Start: 20, End: 40, Parent: 0},
		{Name: "replayed", Start: 120, End: 150, Parent: 0},
		{Name: "grandchild", Start: 12, End: 14, Parent: 1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 30 - 30, 20 - 2, 20, 30, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// BENCHMARK.json must list exactly the workloads and metrics perfbench
// reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json has %d workloads, perfbench %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in perfbench", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEndMetrics}, {"per_layer", doc.PerLayer, perLayerMetrics}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in perfbench", c.name, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if j := c.json[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in perfbench", c.name, i, j, d)
			}
		}
	}
}

func TestQuietSelection(t *testing.T) {
	for _, c := range []struct {
		shares []float64
		want   []int
	}{
		{[]float64{0, 0.2, 0.01, 0.05, 0.5}, []int{0, 2, 3}},
		// Fewer than a tenth quiet: the quietest tenth, not every item.
		{[]float64{0.3, 0.2, 0.5, 0.4, 0.6, 0.9, 0.7, 0.8, 0.35, 0.45, 0.25}, []int{1, 10}},
		{[]float64{0.3}, []int{0}},
	} {
		if got := quietest(c.shares); !slices.Equal(got, c.want) {
			t.Errorf("quietest(%v) = %v, want %v", c.shares, got, c.want)
		}
	}
	s := &stealSampler{
		at:    []time.Duration{0, 10, 20, 30},
		ticks: []cpuTicks{{0, 0}, {100, 0}, {200, 50}, {300, 50}},
	}
	if got := s.share(10, 20); got != 0.5 {
		t.Errorf("share over the stolen interval = %v, want 0.5", got)
	}
	if got := s.share(0, 10); got != 0 {
		t.Errorf("share over a quiet interval = %v, want 0", got)
	}
}

// A stall in one pass of three must show in the pooled p99 and throughput,
// not be voted away by the other passes.
func TestPooledTimeMetrics(t *testing.T) {
	var spans []passSpan
	var at time.Duration
	for k := 0; k < 3; k++ {
		p := passSpan{start: at}
		for i := 0; i < 100; i++ {
			d := time.Millisecond
			if k == 1 && i < 5 {
				d = 50 * time.Millisecond
			}
			p.recs = append(p.recs, opRecord{i: 100*k + i, start: at, end: at + d, status: 200})
			at += d
		}
		p.end = at
		spans = append(spans, p)
	}
	tm := passTimeMetrics(spans)
	if tm.p99 != 50 || tm.p50 != 1 {
		t.Errorf("p50, p99 = %v, %v ms; want 1, 50", tm.p50, tm.p99)
	}
	if want := 300 / at.Seconds(); math.Abs(tm.opsPerS-want) > 1e-9*want {
		t.Errorf("throughput %v ops/s, want %v", tm.opsPerS, want)
	}
	if tm.passS != 0.1 || tm.latencySamples != 300 {
		t.Errorf("pass_s %v, samples %d; want 0.1, 300", tm.passS, tm.latencySamples)
	}
}

// A respelled query must answer exactly as the plain one, ρ = 1 included.
func TestRespellKeepsMeaning(t *testing.T) {
	ref := refServer()
	for _, tok := range []string{"1", "0.5", "0.001", "0.437512"} {
		plain, err := refMeasure(ref, measureQuery([]string{tok, "0.25"}))
		if err != nil {
			t.Fatal(err)
		}
		re, err := refMeasure(ref, measureQuery([]string{respell(tok), "0.25"}))
		if err != nil {
			t.Fatalf("respelled %s as %s: %v", tok, respell(tok), err)
		}
		if re != plain {
			t.Errorf("respelled %s as %s answers differently", tok, respell(tok))
		}
	}
}
