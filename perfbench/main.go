// Command perfbench is the repository's end-to-end benchmark. It drives a
// heterod process over loopback keep-alive connections in a closed loop
// (workloads measure_hot, measure_miss and batch_sweep), or runs repeated
// `hetero all` passes (workload reproduce), checks every response and pass
// against a reference computed by direct evaluation, and prints one JSON
// result line. With -trace 1 it instead reports per-layer metrics: /v1/statz
// deltas over the timed phase plus an in-process traced run that times the
// public functions of api, incr, core, spill and experiments.
//
// Run it through run.sh from the repository root, which builds the binaries:
//
//	bash perfbench/run.sh --workload measure_hot --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads, the metrics and what each one bypasses.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"hetero/internal/core"
	"hetero/internal/model"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	heterod  string // heterod binary
	hetero   string // hetero binary
	goldens  string // cmd/hetero/testdata, the paper goldens `hetero all` must contain
	out      string // directory for trace and result files
	size     sizes
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runReport is what one workload run measured, before it is cut down to the
// metric set the mode prints.
type runReport struct {
	attempted, failed int64
	mismatches        int64 // responses or passes whose bytes differ from the reference
	e2e               map[string]metric
	layer             map[string]metric
	meta              map[string]any
}

var workloadNames = []string{"measure_hot", "measure_miss", "batch_sweep", "reproduce"}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if cfg.trace {
		if err := runTracedSuite(cfg, rep); err != nil {
			fmt.Fprintln(stderr, "perfbench: traced run:", err)
			return 1
		}
	}
	res := result{
		Correct:   rep.failed == 0 && rep.mismatches == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.e2e,
	}
	want := endToEndMetrics
	if cfg.trace {
		res.Metrics = rep.layer
		want = perLayerMetrics
	}
	if missing := missingMetrics(res.Metrics, want); len(missing) > 0 {
		fmt.Fprintln(stderr, "perfbench: metrics not measured:", strings.Join(missing, ", "))
		return 1
	}
	if res.Attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: no operation was attempted")
		return 1
	}
	rep.meta["workload"], rep.meta["seed"], rep.meta["seconds"], rep.meta["trace"] = cfg.workload, cfg.seed, cfg.seconds, cfg.trace
	writeResultFile(cfg, rep, res, stderr)
	metaLine, _ := json.Marshal(rep.meta)
	fmt.Fprintf(stdout, "meta %s\n", metaLine)
	// The workload runs untraced in both modes, so a traced run prints its
	// end-to-end metrics too; the result line holds only the mode's set.
	printMetrics(stdout, rep.e2e)
	if cfg.trace {
		printMetrics(stdout, rep.layer)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed (%d differ from the reference)\n",
			rep.failed, rep.attempted, rep.mismatches)
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from /v1/statz and an in-process traced run")
	fs.StringVar(&cfg.heterod, "heterod", "", "heterod binary")
	fs.StringVar(&cfg.hetero, "hetero", "", "hetero binary")
	fs.StringVar(&cfg.goldens, "goldens", "", "directory of the hetero golden artifacts (cmd/hetero/testdata)")
	fs.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for trace and result files")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch {
	case !slices.Contains(workloadNames, cfg.workload):
		return cfg, fmt.Errorf("-workload must be one of %s", strings.Join(workloadNames, ", "))
	case trace != 0 && trace != 1:
		return cfg, errors.New("-trace must be 0 or 1")
	case cfg.seconds <= 0:
		return cfg, errors.New("-seconds must be positive")
	case cfg.heterod == "" || cfg.hetero == "":
		return cfg, errors.New("-heterod and -hetero are required (run through perfbench/run.sh)")
	}
	cfg.trace, cfg.size = trace == 1, fullSize
	return cfg, nil
}

// duration is the nominal length of the timed phase.
func (cfg config) duration() time.Duration { return time.Duration(cfg.seconds * float64(time.Second)) }

func runWorkload(cfg config) (*runReport, error) {
	// The generator gets at most nproc threads and nproc connections, so it
	// cannot outnumber the cores it shares with heterod.
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	before := hostCalibrationMs()
	measure := runServing
	if cfg.workload == "reproduce" {
		measure = runReproduce
	}
	rep, err := measure(cfg, procs)
	if err != nil {
		return nil, err
	}
	rep.meta["host_calibration_ms"] = []float64{before, hostCalibrationMs()}
	return rep, nil
}

// hostCalibrationMs times a fixed single-threaded computation (core.X over
// a fixed profile), median of 5, before and after each run. The host's speed
// drifts with its other tenants' load, by tens of percent over minutes, and
// this figure in the metadata shows such a drift.
func hostCalibrationMs() float64 {
	p := randomProfile(rand.New(rand.NewSource(1)), 1<<16)
	m := model.Table1()
	var ms []float64
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		for c := 0; c < 8; c++ {
			sink += core.X(m, p)
		}
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return median(ms)
}

func missingMetrics(got map[string]metric, want []metricDef) []string {
	var missing []string
	for _, d := range want {
		if m, ok := got[d.name]; !ok || m.Unit != d.unit {
			missing = append(missing, d.name)
		}
	}
	return missing
}

// printMetrics prints one "name value unit" line per metric, sorted by name.
func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-48s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// writeResultFile keeps the full report, metadata included, under cfg.out.
// A failure to write it is reported but does not fail the run.
func writeResultFile(cfg config, rep *runReport, res result, stderr io.Writer) {
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	doc := map[string]any{"result": res, "meta": rep.meta}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.MkdirAll(cfg.out, 0o755)
	}
	if err == nil {
		name := fmt.Sprintf("result-%s-%s-seed%d-%s.json", cfg.workload, mode, cfg.seed, time.Now().UTC().Format("20060102T150405"))
		err = os.WriteFile(filepath.Join(cfg.out, name), b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: writing result file:", err)
	}
}
