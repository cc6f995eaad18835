package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	bc "hetero/internal/benchcert"
)

var testHost = bc.Host{NumCPU: 2, GOMAXPROCS: 16, GoVersion: "go1.24.0"}

// five repeats v: five samples, so a gated claim clears the sample floor.
func five(v float64) []float64 { return []float64{v, v, v, v, v} }

func ci(name string, threshold float64, num, den []float64) bc.Claim {
	return bc.NewClaim(name, bc.MeanCI95, bc.AtLeast, threshold, num, den)
}

func sums(name string, dir bc.Direction, threshold float64, num, den []float64) bc.Claim {
	return bc.NewClaim(name, bc.RatioOfSums, dir, threshold, num, den)
}

func worst(name string, dir bc.Direction, threshold float64, num, den []float64) bc.Claim {
	return bc.NewClaim(name, bc.Worst, dir, threshold, num, den)
}

// with returns claims with the one named c.Name replaced by c, or with c
// appended when none is.
func with(claims []bc.Claim, c bc.Claim) []bc.Claim {
	out := append([]bc.Claim(nil), claims...)
	for i := range out {
		if out[i].Name == c.Name {
			out[i] = c
			return out
		}
	}
	return append(out, c)
}

// forged returns claims with the named claim's reported value overwritten,
// its raw samples left as they are.
func forged(claims []bc.Claim, name string, value float64) []bc.Claim {
	for _, c := range claims {
		if c.Name == name {
			c.Value = value
			return with(claims, c)
		}
	}
	panic("no claim " + name)
}

func certJSON(t *testing.T, host bc.Host, claims []bc.Claim) string {
	t.Helper()
	raw, err := json.Marshal(bc.Cert{Host: host, Claims: claims})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// Certificates shaped like the four generators' output, each passing.
var (
	serveOK = []bc.Claim{
		sums("hit", bc.AtLeast, 0, []float64{90}, []float64{100}),
		sums("mixed", bc.AtLeast, 3, []float64{50, 60, 55, 52, 58, 51}, []float64{10, 10, 10, 10, 10, 10}),
		ci("many_clients", 2, []float64{60, 70, 65, 62, 68}, five(10)),
		ci("fleet", 2, []float64{230, 220, 240, 235, 225}, five(100)),
		sums("fleet.amplification", bc.AtMost, 1.25, five(20), five(20)),
		sums("fleet.baseline_evals", bc.AtLeast, 0.75, five(80), five(80)),
		ci("sweep", 2, five(3000), five(1000)),
		worst("sweep.spill_hits", bc.AtLeast, 1, five(8), five(8)),
		worst("sweep.peak", bc.AtMost, 0.5, five(100000), five(800000)),
		sums("restart", bc.AtLeast, 0.9, []float64{64, 64, 60, 64, 64}, five(64)),
		worst("restart.spill_hits", bc.AtLeast, 1, []float64{65, 65, 61, 65, 65}, []float64{64, 64, 60, 64, 64}),
	}
	batchOK = []bc.Claim{
		ci("many_small", 0, []float64{19, 21}, []float64{20, 20}),
		ci("few_large", 3, []float64{51, 49, 50, 52, 48}, five(10)),
		ci("dedup_heavy", 1.1, five(15), five(10)),
		sums("stream_peak", bc.AtMost, 0.25, five(20), five(100)),
	}
	faultOK = []bc.Claim{
		sums("empty_plan_overhead", bc.AtMost, 2, five(1.35e6), five(1e6)),
		sums("churn", bc.AtLeast, 1.2, five(30), five(20)),
		sums("churn.overhead", bc.AtMost, 2, five(48951.77607714392), five(24475.88803857196)),
	}
	incrOK = []bc.Claim{
		sums("speedup_search.n256", bc.AtLeast, 2, five(1.1e6), five(2e4)),
		sums("speedup_search.n4096", bc.AtLeast, 10, five(2.9e8), five(2.7e5)),
		sums("measure_serving", bc.AtLeast, 0, []float64{4000}, []float64{2500}),
	}
)

// TestCheckDoc runs every certificate through checkDoc twice: with history
// off (-history "") and against a committed copy of itself, so a forgery
// that only the history rule would catch cannot hide behind it.
func TestCheckDoc(t *testing.T) {
	cases := []struct {
		name    string
		claims  []bc.Claim
		raw     string // used instead of claims when set
		wantErr bool
	}{
		{"serve passing", serveOK, "", false},
		{"batch passing", batchOK, "", false},
		{"fault passing", faultOK, "", false},
		{"incr passing", incrOK, "", false},
		{"not json", nil, `{claims: yes}`, true},
		{"old schema with a pass flag", nil, `{"pass": true, "regimes": []}`, true},
		{"no claims", nil, `{"host": {"num_cpu": 2, "gomaxprocs": 16}, "claims": []}`, true},

		// Forged summaries: a reported value its raw samples do not give.
		{"forged ci value", forged(batchOK, "few_large", 9.9), "", true},
		{"forged ci low", with(batchOK, func() bc.Claim {
			c := ci("few_large", 3, []float64{51, 49, 50, 52, 48}, five(10))
			*c.CILow *= 1.01
			return c
		}()), "", true},
		{"forged churn ratio", forged(faultOK, "churn", 1.8), "", true},
		{"forged fleet amplification", forged(with(serveOK,
			sums("fleet.amplification", bc.AtMost, 1.25, five(36), five(20))), "fleet.amplification", 1.0), "", true},
		{"forged restart hit rate", forged(with(serveOK,
			sums("restart", bc.AtLeast, 0.9, five(56), five(64))), "restart", 1.0), "", true},
		{"forged sweep speedup", forged(serveOK, "sweep", 4.5), "", true},

		// Honest samples under a threshold: nothing but the raw numbers
		// decides, so no flag can certify them.
		{"fault empty-plan overhead 3.5 over 2", with(faultOK,
			sums("empty_plan_overhead", bc.AtMost, 2, five(3.5e6), five(1e6))), "", true},
		{"serve mixed 1.5 under 3", with(serveOK,
			sums("mixed", bc.AtLeast, 3, five(15), five(10))), "", true},
		{"incr speedup_search n=4096 8 under 10", with(incrOK,
			sums("speedup_search.n4096", bc.AtLeast, 10, five(8e6), five(1e6))), "", true},
		{"incr speedup_search n=256 1.5 under 2", with(incrOK,
			sums("speedup_search.n256", bc.AtLeast, 2, five(3e4), five(2e4))), "", true},
		{"ci low under threshold", with(batchOK,
			ci("few_large", 3, []float64{90, 10, 80, 20, 50}, five(10))), "", true},
		{"churn ratio under threshold", with(faultOK, sums("churn", bc.AtLeast, 1.2, five(22), five(20))), "", true},
		{"churn duplication overhead blown", with(faultOK,
			sums("churn.overhead", bc.AtMost, 2, five(26), five(10))), "", true},
		{"fleet amplification over bound", with(serveOK,
			sums("fleet.amplification", bc.AtMost, 1.25, five(36), five(20))), "", true},
		{"fleet lazy baseline", with(serveOK,
			sums("fleet.baseline_evals", bc.AtLeast, 0.75, five(24), five(80))), "", true},
		{"fleet ci low under threshold despite clean counters", with(serveOK,
			ci("fleet", 2, []float64{230, 120, 240, 135, 225}, five(100))), "", true},
		{"sweep not served from disk", with(serveOK,
			worst("sweep.spill_hits", bc.AtLeast, 1, []float64{8, 8, 7, 8, 8}, five(8))), "", true},
		{"sweep peak over its bound", with(serveOK,
			worst("sweep.peak", bc.AtMost, 0.5, []float64{1e5, 1e5, 5e5, 1e5, 1e5}, five(8e5))), "", true},
		{"stream peak over its bound", with(batchOK,
			sums("stream_peak", bc.AtMost, 0.25, five(30), five(100))), "", true},
		{"restart hit rate under threshold", with(serveOK, sums("restart", bc.AtLeast, 0.9, five(48), five(64))), "", true},
		{"restart spill hits do not cover the served keys", with(serveOK,
			worst("restart.spill_hits", bc.AtLeast, 1, []float64{65, 65, 10, 65, 65}, five(64))), "", true},
		{"restart re-evaluations above the floor still certify", with(serveOK,
			sums("restart", bc.AtLeast, 0.9, []float64{64, 64, 60, 64, 64}, five(64))), "", false},

		// Thin evidence: a gated claim needs five samples.
		{"quick ci run cannot certify", with(batchOK, ci("few_large", 3, []float64{99, 90}, []float64{10, 10})), "", true},
		{"quick fleet run cannot certify", with(serveOK, ci("fleet", 2, []float64{230, 240}, []float64{100, 100})), "", true},
		{"quick sweep run cannot certify", with(serveOK, ci("sweep", 2, []float64{3000, 3000}, []float64{1000, 1000})), "", true},
		{"quick restart run cannot certify", with(serveOK, sums("restart", bc.AtLeast, 0.9, []float64{16, 16}, []float64{16, 16})), "", true},
		{"thinned churn seeds", with(faultOK, sums("churn", bc.AtLeast, 1.2, []float64{30, 30}, []float64{20, 20})), "", true},
		{"report-only claim needs no sample floor", with(batchOK, ci("many_small", 0, []float64{9}, []float64{10})), "", false},

		// Missing or malformed raw fields.
		{"missing raw samples", with(serveOK, bc.Claim{Name: "fleet.amplification", Stat: bc.RatioOfSums,
			Direction: bc.AtMost, Threshold: 1.25, Value: 1}), "", true},
		{"unpaired raw arrays", with(serveOK, func() bc.Claim {
			c := ci("sweep", 2, five(3000), five(1000))
			c.Num = c.Num[:4]
			return c
		}()), "", true},
		{"churn zero replan salvage", with(faultOK, sums("churn", bc.AtLeast, 1.2, five(30), five(0))), "", true},
		{"missing ci low", with(batchOK, func() bc.Claim {
			c := ci("few_large", 3, []float64{51, 49, 50, 52, 48}, five(10))
			c.CILow = nil
			return c
		}()), "", true},
	}
	for _, tc := range cases {
		content := tc.raw
		if content == "" {
			content = certJSON(t, testHost, tc.claims)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "BENCH_x.json")
		write(t, path, content)
		history := filepath.Join(dir, "history")
		if err := os.Mkdir(history, 0o755); err != nil {
			t.Fatal(err)
		}
		write(t, filepath.Join(history, "BENCH_x.json"), content)
		for _, h := range []string{"", history} {
			err := checkDoc(path, h)
			if (err != nil) != tc.wantErr {
				t.Errorf("%s (history %q): err = %v, wantErr = %v", tc.name, h, err, tc.wantErr)
			}
		}
	}
}

func TestCheckDocMissingFile(t *testing.T) {
	if err := checkDoc(filepath.Join(t.TempDir(), "nope.json"), ""); err == nil {
		t.Fatal("missing file accepted")
	}
}

// historyCase writes committed into a fresh history directory and returns
// a function checking a current certificate against it.
func historyCase(t *testing.T, name string, committed []bc.Claim) (check func(cur []bc.Claim) error, histDir string) {
	t.Helper()
	dir := t.TempDir()
	histDir = filepath.Join(dir, "bench_history")
	if err := os.Mkdir(histDir, 0o755); err != nil {
		t.Fatal(err)
	}
	write(t, filepath.Join(histDir, name), certJSON(t, testHost, committed))
	cur := filepath.Join(dir, name)
	return func(claims []bc.Claim) error {
		write(t, cur, certJSON(t, testHost, claims))
		return checkDoc(cur, histDir)
	}, histDir
}

// TestCheckHistory pins the ≤ side of the history rule on the stream peak:
// within 120% of the committed value passes, beyond it fails, a dropped
// claim fails, and absent history on either side never blocks.
func TestCheckHistory(t *testing.T) {
	peak := func(v float64) []bc.Claim {
		return with(batchOK, sums("stream_peak", bc.AtMost, 0.25, five(v), five(100)))
	}
	check, _ := historyCase(t, "BENCH_batch.json", peak(10))
	if err := check(peak(11)); err != nil {
		t.Fatalf("10%% growth rejected: %v", err)
	}
	if err := check(peak(15)); err == nil {
		t.Fatal("50% peak growth accepted")
	}
	if err := check(batchOK[:3]); err == nil {
		t.Fatal("dropped stream_peak claim accepted against committed history")
	}
	dir := t.TempDir()
	cur := filepath.Join(dir, "BENCH_batch.json")
	write(t, cur, certJSON(t, testHost, peak(15)))
	if err := checkDoc(cur, filepath.Join(dir, "missing")); err != nil {
		t.Fatalf("absent history dir blocked: %v", err)
	}
	if err := checkDoc(cur, ""); err != nil {
		t.Fatalf("disabled history blocked: %v", err)
	}
}

// TestCheckHistorySpeedups pins the ≥ side: a gated claim may not fall
// below 70% of its committed value, report-only claims drift freely, and a
// gated claim can neither vanish nor loosen its threshold.
func TestCheckHistorySpeedups(t *testing.T) {
	doc := func(manyClients, hit float64) []bc.Claim {
		return with(with(serveOK, ci("many_clients", 2, five(manyClients), five(1))),
			sums("hit", bc.AtLeast, 0, []float64{hit}, []float64{1}))
	}
	check, histDir := historyCase(t, "BENCH_serve.json", doc(6.0, 1.2))
	if err := check(doc(5.0, 1.2)); err != nil {
		t.Fatalf("17%% drop rejected: %v", err)
	}
	if err := check(doc(3.0, 1.2)); err == nil {
		t.Fatal("halved gated claim accepted against committed history, though 3.0 clears its threshold 2")
	}
	if err := check(doc(6.0, 0.1)); err != nil {
		t.Fatalf("report-only drift blocked: %v", err)
	}
	if err := check(with(doc(6.0, 1.2), ci("many_clients", 1, five(6), five(1)))); err == nil {
		t.Fatal("loosened threshold accepted against committed history")
	}
	if err := check(with(doc(6.0, 1.2), ci("many_clients", 0, five(6), five(1)))); err == nil {
		t.Fatal("gated claim turned report-only accepted against committed history")
	}
	var dropped []bc.Claim
	for _, c := range doc(6.0, 1.2) {
		if c.Name != "many_clients" {
			dropped = append(dropped, c)
		}
	}
	if err := check(dropped); err == nil {
		t.Fatal("dropped gated claim accepted against committed history")
	}
	// A committed certificate with no gated claims gates nothing.
	write(t, filepath.Join(histDir, "BENCH_serve.json"),
		certJSON(t, testHost, []bc.Claim{sums("hit", bc.AtLeast, 0, []float64{9.9}, []float64{1})}))
	if err := check(doc(1.0, 1.2)); err == nil {
		t.Fatal("many_clients at 1.0 under its threshold 2 accepted")
	}
	if err := check(doc(2.5, 1.2)); err != nil {
		t.Fatalf("ungated history blocked: %v", err)
	}
}

// TestCheckHistorySpeedupSearch pins that cmd/benchincr's speedup_search
// claims join the history rule like any other gated claim.
func TestCheckHistorySpeedupSearch(t *testing.T) {
	doc := func(n4096 float64) []bc.Claim {
		return with(incrOK, sums("speedup_search.n4096", bc.AtLeast, 10, five(n4096), five(1)))
	}
	check, _ := historyCase(t, "BENCH_incr.json", doc(80))
	if err := check(doc(70)); err != nil {
		t.Fatalf("small speedup_search drop rejected: %v", err)
	}
	if err := check(doc(40)); err == nil {
		t.Fatal("halved speedup_search accepted against committed history, though 40 clears its threshold 10")
	}
	if err := check(incrOK[:1]); err == nil {
		t.Fatal("dropped speedup_search claim accepted against committed history")
	}
}

// TestCheckHistoryHostShape pins that history compares like host shapes
// only: a committed certificate from another num_cpu or GOMAXPROCS fails
// the check, naming the re-seed step, rather than being skipped.
func TestCheckHistoryHostShape(t *testing.T) {
	for _, committedHost := range []bc.Host{
		{NumCPU: 1, GOMAXPROCS: 16, GoVersion: testHost.GoVersion},
		{NumCPU: 2, GOMAXPROCS: 2, GoVersion: testHost.GoVersion},
	} {
		dir := t.TempDir()
		histDir := filepath.Join(dir, "bench_history")
		if err := os.Mkdir(histDir, 0o755); err != nil {
			t.Fatal(err)
		}
		write(t, filepath.Join(histDir, "BENCH_serve.json"), certJSON(t, committedHost, serveOK))
		cur := filepath.Join(dir, "BENCH_serve.json")
		write(t, cur, certJSON(t, testHost, serveOK))
		err := checkDoc(cur, histDir)
		if err == nil || !strings.Contains(err.Error(), "re-seed") {
			t.Errorf("committed host %+v vs current %+v: err = %v, want a host-shape failure naming the re-seed step",
				committedHost, testHost, err)
		}
	}
	// A different Go version alone is the same shape.
	dir := t.TempDir()
	write(t, filepath.Join(dir, "BENCH_serve.json"), certJSON(t, testHost, serveOK))
	older := testHost
	older.GoVersion = "go1.22.0"
	if err := os.Mkdir(filepath.Join(dir, "h"), 0o755); err != nil {
		t.Fatal(err)
	}
	write(t, filepath.Join(dir, "h", "BENCH_serve.json"), certJSON(t, older, serveOK))
	if err := checkDoc(filepath.Join(dir, "BENCH_serve.json"), filepath.Join(dir, "h")); err != nil {
		t.Fatalf("a Go version change alone blocked the history: %v", err)
	}
}
