// Package repro_test holds the benchmark harness that regenerates every
// table and figure of the paper (see DESIGN.md §3 for the experiment
// index). Each benchmark computes one published artifact per iteration and
// attaches the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's rows/series alongside the usual cost figures.
// The hetero CLI prints the same artifacts as formatted tables.
package repro_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"hetero/internal/adaptive"
	"hetero/internal/api"
	"hetero/internal/catalog"
	"hetero/internal/core"
	"hetero/internal/experiments"
	"hetero/internal/harness"
	"hetero/internal/hier"
	"hetero/internal/incr"
	"hetero/internal/model"
	"hetero/internal/parallel"
	"hetero/internal/profile"
	"hetero/internal/schedule"
	"hetero/internal/sim"
	"hetero/internal/spill"
	"hetero/internal/stats"
	"hetero/internal/workload"
)

// BenchmarkTable1Params regenerates Table 1's derived constants.
func BenchmarkTable1Params(b *testing.B) {
	var a float64
	for i := 0; i < b.N; i++ {
		m := model.Table1()
		a = m.A() + m.B() + m.TauDelta() + m.Theorem4Threshold()
	}
	b.ReportMetric(model.Table1().A()*1e6, "A_µs")
	b.ReportMetric(model.Table1().B(), "B_sec")
	_ = a
}

// BenchmarkTable2 regenerates Table 2.
func BenchmarkTable2(b *testing.B) {
	var r experiments.Table2Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table2()
	}
	b.ReportMetric(r.BCoarse, "B_coarse_sec")
	b.ReportMetric(r.BFine, "B_fine_sec")
}

// BenchmarkTable3HECR regenerates Table 3 (HECRs at n = 8, 16, 32).
func BenchmarkTable3HECR(b *testing.B) {
	var r experiments.Table3Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table3()
	}
	b.ReportMetric(r.Rows[0].HECRC1, "hecr_c1_n8")
	b.ReportMetric(r.Rows[0].HECRC2, "hecr_c2_n8")
	b.ReportMetric(r.Rows[2].HECRC1, "hecr_c1_n32")
	b.ReportMetric(r.Rows[2].HECRC2, "hecr_c2_n32")
	b.ReportMetric(r.Rows[2].Ratio, "advantage_n32")
}

// BenchmarkTable4WorkRatios regenerates Table 4 (additive speedups of
// ⟨1, 1/2, 1/3, 1/4⟩ by φ = 1/16).
func BenchmarkTable4WorkRatios(b *testing.B) {
	var r experiments.Table4Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Table4()
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, row := range r.Rows {
		names := []string{"ratio_c1", "ratio_c2", "ratio_c3", "ratio_c4"}
		b.ReportMetric(row.WorkRatio, names[i])
	}
}

// BenchmarkFig1Timeline regenerates Figure 1's seven-phase breakdown.
func BenchmarkFig1Timeline(b *testing.B) {
	m := model.Table1()
	var total float64
	for i := 0; i < b.N; i++ {
		total = 0
		for _, ph := range schedule.SingleTimeline(m.Pi, m.Tau, m.Pi, m.Delta, 0.5, 100) {
			total += ph.Duration
		}
	}
	b.ReportMetric(total, "end_to_end_time")
}

// BenchmarkFig2Schedule regenerates Figure 2: building and verifying the
// 3-computer FIFO schedule.
func BenchmarkFig2Schedule(b *testing.B) {
	m := model.Table1()
	p := profile.MustNew(1, 0.5, 0.25)
	var w float64
	for i := 0; i < b.N; i++ {
		s, err := schedule.BuildFIFO(m, p, 3600)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Verify(); err != nil {
			b.Fatal(err)
		}
		w = s.TotalWork
	}
	b.ReportMetric(w, "work_units")
}

// BenchmarkFig3SpeedupPhase1 regenerates Figure 3: 16 greedy multiplicative
// speedup rounds from ⟨1,1,1,1⟩.
func BenchmarkFig3SpeedupPhase1(b *testing.B) {
	var r experiments.FigSpeedupResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig3()
		if err != nil {
			b.Fatal(err)
		}
	}
	seq := r.SelectionSequence()
	b.ReportMetric(float64(seq[0]), "round1_pick")
	b.ReportMetric(float64(seq[4]), "round5_pick")
	b.ReportMetric(r.Steps[15].After[0], "final_rho")
}

// BenchmarkFig4SpeedupPhase2 regenerates Figure 4: the phase-2 rounds where
// condition (2) of Theorem 4 takes over.
func BenchmarkFig4SpeedupPhase2(b *testing.B) {
	var r experiments.FigSpeedupResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.SelectionSequence()[0]), "round1_pick")
	b.ReportMetric(r.Steps[3].After[0], "final_rho")
}

// BenchmarkMeanCounterexample regenerates §4's intro example.
func BenchmarkMeanCounterexample(b *testing.B) {
	var r experiments.MeanCounterexampleResult
	for i := 0; i < b.N; i++ {
		r = experiments.MeanCounterexample()
	}
	b.ReportMetric(r.XHetero, "x_hetero")
	b.ReportMetric(r.XHomo, "x_homo")
}

// BenchmarkVariancePredictor regenerates (a scaled-down slice of) the §4.3
// study: equal-mean pairs, variance prediction vs HECR ground truth.
func BenchmarkVariancePredictor(b *testing.B) {
	cfg := experiments.VarianceConfig{
		Params:        model.Table1(),
		Sizes:         []int{4, 16, 64, 128},
		TrialsPerSize: 100,
		Seed:          20100419,
	}
	var r experiments.VariancePredictorResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.VariancePredictor(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.Rows[len(r.Rows)-1].BadFraction, "bad_pct_n128")
	b.ReportMetric(r.Theta, "empirical_theta")
}

// BenchmarkVarianceThreshold regenerates the §4.3 θ-threshold Fact at the
// paper's θ = 0.167.
func BenchmarkVarianceThreshold(b *testing.B) {
	cfg := experiments.VarianceConfig{
		Params:        model.Table1(),
		Sizes:         []int{4, 64, 1024},
		TrialsPerSize: 50,
		Seed:          20100419,
	}
	var r experiments.ThresholdResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.VarianceThreshold(cfg, experiments.PaperTheta)
		if err != nil {
			b.Fatal(err)
		}
	}
	wrong := 0
	for _, row := range r.Rows {
		wrong += row.WrongAbove
	}
	b.ReportMetric(float64(wrong), "mispredictions")
}

// BenchmarkOrderInvariance measures Theorem 1.2 in schedule form: FIFO
// schedules for random startup orders of one cluster (the total work is
// asserted identical).
func BenchmarkOrderInvariance(b *testing.B) {
	m := model.Table1()
	p := profile.Linear(16)
	base, err := schedule.BuildFIFO(m, p, 1000)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := schedule.BuildFIFO(m, p.Permuted(rng.Perm(len(p))), 1000)
		if err != nil {
			b.Fatal(err)
		}
		if diff := s.TotalWork - base.TotalWork; diff > 1e-6 || diff < -1e-6 {
			b.Fatalf("order changed work: %v vs %v", s.TotalWork, base.TotalWork)
		}
	}
}

// BenchmarkSimVsAnalytic measures the discrete-event simulator replaying
// the optimal protocol (Theorem 2 validation) on a 64-computer cluster.
func BenchmarkSimVsAnalytic(b *testing.B) {
	m := model.Table1()
	p := profile.RandomNormalized(stats.NewRNG(5), 64)
	proto, err := sim.OptimalFIFO(m, p, 3600)
	if err != nil {
		b.Fatal(err)
	}
	analytic := core.W(m, p, 3600)
	var res sim.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = sim.RunCEP(m, p, proto, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Completed/analytic, "sim_over_analytic")
	b.ReportMetric(float64(res.Events), "events")
}

// BenchmarkBaselineComparison measures the FIFO-vs-naive extension study.
func BenchmarkBaselineComparison(b *testing.B) {
	m := model.Table1()
	clusters := experiments.DefaultBaselineClusters(8)
	var r experiments.BaselineResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.BaselineComparison(m, 2000, clusters)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range r.Rows {
		if row.Name == "harmonic" {
			b.ReportMetric(100*row.EqualPenalty(), "harmonic_equal_loss_pct")
		}
	}
}

// BenchmarkMomentPredictors measures the moment-ablation extension study.
func BenchmarkMomentPredictors(b *testing.B) {
	var r experiments.MomentPredictorResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.MomentPredictors(model.Table1(), 8, 300, 99)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.Accuracy["geo-mean"], "geomean_acc_pct")
	b.ReportMetric(100*r.Accuracy["arith-mean"], "arithmean_acc_pct")
}

// BenchmarkXForms is the numerical ablation: the three X implementations
// at growing cluster sizes.
func BenchmarkXForms(b *testing.B) {
	m := model.Table1()
	for _, n := range []int{8, 64, 1024, 1 << 16} {
		p := profile.RandomNormalized(stats.NewRNG(uint64(n)), n)
		b.Run(formName("telescoped", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.X(m, p)
			}
		})
		b.Run(formName("direct", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.XDirect(m, p)
			}
		})
		if n <= 32 {
			b.Run(formName("rational", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.XRational(m, p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkHECR measures the headline measure across cluster scales,
// including the §4.3 extreme n = 2^16.
func BenchmarkHECR(b *testing.B) {
	m := model.Table1()
	for _, n := range []int{8, 1024, 1 << 16} {
		p := profile.RandomNormalized(stats.NewRNG(uint64(n)), n)
		b.Run(formName("n", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.HECR(m, p)
			}
		})
	}
}

// BenchmarkSimThroughput measures raw simulator event throughput on a
// large cluster.
func BenchmarkSimThroughput(b *testing.B) {
	m := model.Table1()
	p := profile.RandomNormalized(stats.NewRNG(9), 1024)
	proto, err := sim.OptimalFIFO(m, p, 1e5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var events int
	for i := 0; i < b.N; i++ {
		res, err := sim.RunCEP(m, p, proto, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events), "events/run")
}

func formName(prefix string, n int) string {
	switch {
	case n >= 1<<16:
		return prefix + "_65536"
	default:
		return prefix + "_" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkProtocolStudy measures the exhaustive (Σ,Φ) enumeration — the
// empirical verification of Adler–Gong–Rosenberg's Theorem 1 that the paper
// builds on.
func BenchmarkProtocolStudy(b *testing.B) {
	m := model.Table1()
	p := profile.MustNew(1, 0.6, 0.35, 0.2)
	var r experiments.ProtocolStudyResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.ProtocolStudy(m, p, 1000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(r.Rows)), "orders")
	worst := r.Rows[len(r.Rows)-1]
	if worst.Feasible {
		b.ReportMetric(100*worst.LossVsFIFO, "worst_loss_pct")
	}
}

// BenchmarkGeneralSchedule measures one (Σ,Φ) linear-system solve+assemble.
func BenchmarkGeneralSchedule(b *testing.B) {
	m := model.Table1()
	p := profile.MustNew(1, 0.8, 0.6, 0.45, 0.3, 0.25, 0.2, 0.15)
	phi := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for i := 0; i < b.N; i++ {
		if _, err := schedule.BuildGeneral(m, p, phi, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictorRace measures the statistical-predictor study
// (companion-paper direction), including logistic training.
func BenchmarkPredictorRace(b *testing.B) {
	m := model.Table1()
	var r experiments.PredictorRaceResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.PredictorRace(m, 8, 150, 150, 77)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.General.Accuracy["neg-total-speed"], "totalspeed_acc_pct")
	b.ReportMetric(100*r.EqualMean.Accuracy["neg-variance"], "eqmean_var_acc_pct")
}

// BenchmarkCostEffectiveness measures the equal-budget cost study.
func BenchmarkCostEffectiveness(b *testing.B) {
	m := model.Table1()
	cost := experiments.CostModel{Alpha: 1.5}
	clusters, err := experiments.EqualBudgetClusters(cost, 8, 150)
	if err != nil {
		b.Fatal(err)
	}
	var r experiments.CostResult
	for i := 0; i < b.N; i++ {
		r, err = experiments.CostEffectiveness(m, cost, clusters)
		if err != nil {
			b.Fatal(err)
		}
	}
	best := 0.0
	for _, row := range r.Rows {
		if row.WorkPerDollar > best {
			best = row.WorkPerDollar
		}
	}
	b.ReportMetric(best, "best_work_per_price")
}

// BenchmarkLinkOrderStudy measures the heterogeneous-link startup-order
// enumeration (the regime where Theorem 1.2 fails).
func BenchmarkLinkOrderStudy(b *testing.B) {
	m := model.Table1()
	p := profile.MustNew(0.5, 0.4, 0.3, 0.2)
	taus := []float64{1e-6, 1e-3, 5e-3, 2e-2}
	var r experiments.LinkOrderStudyResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.LinkOrderStudy(m, p, taus, 1000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.Spread(), "order_spread_pct")
}

// BenchmarkXExact measures the big.Float reference evaluation.
func BenchmarkXExact(b *testing.B) {
	m := model.Table1()
	p := profile.RandomNormalized(stats.NewRNG(8), 64)
	for i := 0; i < b.N; i++ {
		_ = core.XExactFloat64(m, p)
	}
}

// BenchmarkParallelMap measures the worker-pool substrate's scaling on a
// CPU-bound microtask.
func BenchmarkParallelMap(b *testing.B) {
	work := func(i int) float64 {
		s := 0.0
		for k := 0; k < 1000; k++ {
			s += float64(i*k) * 1e-9
		}
		return s
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(formName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = parallel.Map(workers, 4096, work)
			}
		})
	}
}

// BenchmarkAdaptive measures the online speed-estimation loop (8 rounds on
// a 16-computer cluster with fluctuating speeds).
func BenchmarkAdaptive(b *testing.B) {
	cfg := adaptive.Config{
		Params:        model.Table1(),
		True:          profile.Linear(16),
		Rounds:        8,
		RoundLifespan: 500,
		Alpha:         0.5,
		Jitter:        0.1,
		Seed:          1,
	}
	var res adaptive.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = adaptive.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := res.Rounds[len(res.Rounds)-1]
	b.ReportMetric(100*last.Efficiency, "late_efficiency_pct")
}

// BenchmarkCatalogOptimize measures the exact cluster-design knapsack at a
// realistic budget.
func BenchmarkCatalogOptimize(b *testing.B) {
	m := model.Table1()
	cat := catalog.Catalog{
		{Name: "econo", Rho: 1, Price: 7},
		{Name: "mid", Rho: 0.5, Price: 18},
		{Name: "fast", Rho: 0.25, Price: 41},
		{Name: "turbo", Rho: 0.1, Price: 120},
	}
	var d catalog.Design
	var err error
	for i := 0; i < b.N; i++ {
		d, err = catalog.Optimize(m, cat, 5000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.X, "optimal_x")
	b.ReportMetric(float64(len(d.Profile)), "machines")
}

// BenchmarkHarnessMonteCarlo measures real end-to-end execution (actual
// Monte-Carlo computation under virtual model time).
func BenchmarkHarnessMonteCarlo(b *testing.B) {
	m := model.Table1()
	p := profile.MustNew(1, 0.5, 0.25, 0.125)
	task := workload.NewMonteCarlo(1, 2000)
	var rep *harness.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = harness.RunFIFO(m, p, task, 200)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.UnitsDone), "units")
}

// Sinks keep the compiler from discarding the kernels' results.
var (
	digestSink uint64
	floatSink  float64
)

// BenchmarkMonteCarloRun measures one unit of the Monte-Carlo task that
// `hetero all`'s real-workload execution runs (20000 samples, two
// Float64 draws each): the RNG kernel behind experiments.execute.
func BenchmarkMonteCarloRun(b *testing.B) {
	task, err := workload.ByName("montecarlo", 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		digestSink = task.Run(i)
	}
}

// BenchmarkRNGFloat64 measures a single uniform draw.
func BenchmarkRNGFloat64(b *testing.B) {
	r := stats.NewRNG(1)
	var s float64
	for i := 0; i < b.N; i++ {
		s += r.Float64()
	}
	floatSink = s
}

// BenchmarkHierarchyFold measures the recursive subtree folding on a
// 3-level, 64-leaf tree.
func BenchmarkHierarchyFold(b *testing.B) {
	m := model.Table1()
	leaves := profile.Linear(64)
	var quads []*hier.Node
	for g := 0; g < 16; g++ {
		quads = append(quads, hier.Cluster(
			hier.Leaf(leaves[4*g]), hier.Leaf(leaves[4*g+1]),
			hier.Leaf(leaves[4*g+2]), hier.Leaf(leaves[4*g+3])))
	}
	var groups []*hier.Node
	for g := 0; g < 4; g++ {
		groups = append(groups, hier.Cluster(quads[4*g:4*g+4]...))
	}
	tree := hier.Cluster(groups...)
	var x float64
	for i := 0; i < b.N; i++ {
		var err error
		x, err = tree.X(m)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(x, "tree_x")
}

// BenchmarkMultiInstallment measures the k-installment simulation sweep at
// an expensive link (the regime where installments pay).
func BenchmarkMultiInstallment(b *testing.B) {
	m := model.Params{Tau: 0.05, Pi: 1e-4, Delta: 1}
	p := profile.MustNew(1, 0.8, 0.6, 0.4)
	var gain float64
	for i := 0; i < b.N; i++ {
		_, k1, err := sim.MultiInstallment(m, p, 100, 1)
		if err != nil {
			b.Fatal(err)
		}
		_, k8, err := sim.MultiInstallment(m, p, 100, 8)
		if err != nil {
			b.Fatal(err)
		}
		gain = k8.Completed/k1.Completed - 1
	}
	b.ReportMetric(100*gain, "k8_gain_pct")
}

// BenchmarkReplicate measures the full replication certificate.
func BenchmarkReplicate(b *testing.B) {
	cfg := experiments.ReplicationConfig{VarianceTrials: 100, Seed: 20100419}
	var rep experiments.ReplicationReport
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = experiments.Replicate(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Passed), "checks_passed")
	b.ReportMetric(float64(rep.Failed), "checks_failed")
}

// BenchmarkAPIMeasure measures the HTTP service's hot endpoint end to end
// (in-process handler, no network) with the response cache disabled —
// every request recomputes and re-renders. Compare BenchmarkAPIMeasureCached.
func BenchmarkAPIMeasure(b *testing.B) {
	h := api.NewServerCacheSize(0).Handler()
	req := httptest.NewRequest("GET", "/v1/measure?profile=1,0.5,0.25,0.125", nil)
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkSpeedupSearch compares the retained O(n²) brute-force speedup
// search against the O(n) incremental rewrite at the issue's two scales.
// The ≥10× acceptance ratio at n = 4096 is certified by cmd/benchincr.
func BenchmarkSpeedupSearch(b *testing.B) {
	m := model.Figs34()
	for _, n := range []int{256, 4096} {
		p := profile.RandomNormalized(stats.NewRNG(uint64(n)), n)
		b.Run(formName("brute", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BestMultiplicativeBruteForce(m, p, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(formName("incremental", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BestMultiplicative(m, p, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrWhatIf measures a single O(1) counterfactual query against
// the cost of a fresh full scan at the same size.
func BenchmarkIncrWhatIf(b *testing.B) {
	m := model.Table1()
	for _, n := range []int{256, 4096, 1 << 16} {
		p := profile.RandomNormalized(stats.NewRNG(uint64(n)), n)
		ev, err := incr.New(m, p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(formName("whatif", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ev.WhatIf(i%n, 0.3); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(formName("fresh", n), func(b *testing.B) {
			q := p.Clone()
			for i := 0; i < b.N; i++ {
				q[i%n] = 0.3
				_ = core.X(m, q)
				q[i%n] = p[i%n]
			}
		})
	}
}

// BenchmarkBatchX measures the amortized batch evaluation path that the
// /v1/batch endpoint and the experiments pipeline ride on.
func BenchmarkBatchX(b *testing.B) {
	m := model.Table1()
	rng := stats.NewRNG(17)
	profiles := make([]profile.Profile, 512)
	for i := range profiles {
		profiles[i] = profile.RandomNormalized(rng, 64)
	}
	for _, workers := range []int{1, 4} {
		b.Run(formName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = incr.BatchX(m, profiles, workers)
			}
		})
	}
}

// BenchmarkAPIMeasureCached measures the hot endpoint with the response
// cache warm (every request after the first is a byte-identical hit);
// BenchmarkAPIMeasure below is the same request against a cache-disabled
// server, so the pair quantifies the serving-path win.
func BenchmarkAPIMeasureCached(b *testing.B) {
	h := api.NewServer().Handler()
	req := httptest.NewRequest("GET", "/v1/measure?profile=1,0.5,0.25,0.125", nil)
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkReadPostBody measures what a repeated 9 MiB POST /v1/batch body
// costs before any decoding: reading it under the body cap and keying the
// raw body-front on it. The body is a one-profile batch padded with
// whitespace, so after the first request every iteration is a front hit
// with a small response and -benchmem's bytes/op and allocs/op are the
// body path's own: the read (about 1.5x the body) and one key copy.
func BenchmarkReadPostBody(b *testing.B) {
	const size = 9 << 20
	prefix := `{"profiles":[[1,0.5,0.25]]}`
	body := []byte(prefix + strings.Repeat(" ", size-len(prefix)))
	h := api.NewServer().Handler()
	post := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)))
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	post()
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// BenchmarkBatchFresh times the stages of one fresh POST /v1/batch body of
// 2^20 ρ: eight profiles of 2^17 three-decimal ρ-values (9 MB), on a server
// with a 192-entry, 16 MiB cache, where no fragment fits a cache shard and
// so every request evaluates. "decode" parses and validates the body,
// "echo" renders the eight profile echoes, "buffered" runs the whole
// response through BatchBody (the writer's buffer sink: one window of eight
// fragments; the response is too large for the body front, so every call
// evaluates), and "stream" runs it through BatchBodyStream (the stream
// sink: one fragment per window) into io.Discard. Each reports ns/rho;
// times 2^20 it is the per-body cost of that stage.
func BenchmarkBatchFresh(b *testing.B) {
	const units = 1 << 20
	body := batchSweepBody(units, 8)
	s := api.NewServerWithCache(api.CacheConfig{Entries: 192, MaxBytes: 16 << 20, Coalesce: true})
	profiles, status, msg := s.DecodeBatch(body)
	if status != 0 {
		b.Fatalf("decode: %d %s", status, msg)
	}
	perRho := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/units, "ns/rho")
	}
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, status, msg := s.DecodeBatch(body); status != 0 {
				b.Fatalf("decode: %d %s", status, msg)
			}
		}
		perRho(b)
	})
	b.Run("echo", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			for _, p := range profiles {
				buf = api.AppendProfileEcho(buf[:0], p)
			}
		}
		perRho(b)
	})
	b.Run("buffered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if status, _, msg := s.BatchBody(body); status != 200 {
				b.Fatalf("buffered: %d %s", status, msg)
			}
		}
		perRho(b)
	})
	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if status, msg, err := s.BatchBodyStream(context.Background(), io.Discard, body); status != 200 || err != nil {
				b.Fatalf("stream: %d %s %v", status, msg, err)
			}
		}
		perRho(b)
	})
}

// batchSweepBody renders a /v1/batch body of k profiles of units/k
// three-decimal ρ-values (2^20 ρ make 9 MB).
func batchSweepBody(units, k int) []byte {
	rng := stats.NewRNG(17)
	body := []byte(`{"profiles":[`)
	for p := 0; p < k; p++ {
		if p > 0 {
			body = append(body, ',')
		}
		body = append(body, '[')
		for j := 0; j < units/k; j++ {
			if j > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendFloat(body, float64(1+rng.Intn(1000))/1000, 'f', -1, 64)
		}
		body = append(body, ']')
	}
	return append(body, "]}"...)
}

// BenchmarkBatchSpillHit times one repeat of a 2^20-ρ /v1/batch body (the
// BatchFresh body) over a loopback httptest server with the spill tier in a
// temporary directory: the body is over the stream threshold, so the
// repeat is a spill stream hit — the stream probe and its pre-verify of the
// stored key and body, then the stored response written to the socket.
// MB/s counts response bytes; B/op counts the client's and the server's
// allocations alike. Run it with -cpu 1,2 to see what the second core buys.
func BenchmarkBatchSpillHit(b *testing.B) {
	body := batchSweepBody(1<<20, 8)
	st, err := spill.Open(spill.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	s := api.NewServerWithCache(api.CacheConfig{Entries: 192, MaxBytes: 16 << 20, Coalesce: true})
	s.EnableSpill(st)
	defer s.CloseSpill()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	post := func() int64 {
		resp, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			b.Fatalf("status %d: %v", resp.StatusCode, err)
		}
		return n
	}
	post() // the fresh render, teed into spill
	hits := s.SpillStatsNow().Hits
	b.SetBytes(post())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	if got := s.SpillStatsNow().Hits - hits; got != uint64(b.N)+1 {
		b.Fatalf("%d spill hits for %d repeats", got, b.N+1)
	}
}

// BenchmarkAppendJSONFloat times the response renderer's float formatting
// through the serial profile echo (4096 ρ, below the chunked-echo cutover),
// in ns/rho, for three classes of ρ: six-decimal k/10⁶ (perfbench's
// measure spellings), three-decimal k/10³ (its batch spellings), and
// full-precision uniform draws, which take strconv's shortest-digit search.
func BenchmarkAppendJSONFloat(b *testing.B) {
	const n = 4096
	rng := stats.NewRNG(23)
	classes := []struct {
		name string
		rho  func() float64
	}{
		{"six-decimal", func() float64 { return float64(1000+rng.Intn(999_001)) / 1e6 }},
		{"three-decimal", func() float64 { return float64(1+rng.Intn(1000)) / 1e3 }},
		{"full-precision", func() float64 { return 1e-3 + (1-1e-3)*rng.Float64() }},
	}
	for _, c := range classes {
		rhos := make([]float64, n)
		for i := range rhos {
			rhos[i] = c.rho()
		}
		b.Run(c.name, func(b *testing.B) {
			buf := api.AppendProfileEcho(nil, rhos)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = api.AppendProfileEcho(buf[:0], rhos)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/rho")
		})
	}
}

// BenchmarkDecompose measures the eq. (3) proof-identity evaluation.
func BenchmarkDecompose(b *testing.B) {
	m := model.Table1()
	p := profile.Linear(16)
	for i := 0; i < b.N; i++ {
		if _, err := core.Decompose(m, p, 0, 15); err != nil {
			b.Fatal(err)
		}
	}
}
