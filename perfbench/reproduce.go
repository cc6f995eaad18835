package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

// reproGoldens are the cmd/hetero golden artifacts that `hetero all` prints
// verbatim; the reference pass must contain each one.
var reproGoldens = []string{"table2", "table4", "fig1", "fig4", "counterexample"}

// pass is one `hetero all` run.
type pass struct {
	firstByte time.Duration // exec to first output byte
	maxRSSMB  float64
	cpu       float64 // user+system seconds of the child
	out       digest
	err       error
}

// runPass execs `hetero all`, digesting its standard output as it streams.
// keep, when non-nil, receives a copy of the output.
func runPass(bin string, procs int, keep *bytes.Buffer) pass {
	cmd := exec.Command(bin, "all")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return pass{err: err}
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return pass{err: err}
	}
	var p pass
	br := bufio.NewReaderSize(stdout, 64<<10)
	if _, err := br.Peek(1); err == nil {
		p.firstByte = time.Since(t0)
	}
	var d digestWriter
	var w io.Writer = &d
	if keep != nil {
		w = io.MultiWriter(&d, keep)
	}
	_, copyErr := io.Copy(w, br)
	waitErr := cmd.Wait()
	p.out = d.sum()
	if p.err = copyErr; p.err == nil {
		p.err = waitErr
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.maxRSSMB = float64(ru.Maxrss) / 1024 // Maxrss is in KB on Linux
		p.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	return p
}

// reproduceReference runs one untimed pass and checks that its output holds
// every golden artifact of the paper reproduction; its digest is then the
// reference every timed pass must match.
func reproduceReference(cfg config, procs int) (digest, error) {
	var out bytes.Buffer
	p := runPass(cfg.hetero, procs, &out)
	if p.err != nil {
		return 0, fmt.Errorf("reference `hetero all` pass: %w", p.err)
	}
	for _, g := range reproGoldens {
		want, err := os.ReadFile(filepath.Join(cfg.goldens, g+".golden"))
		if err != nil {
			return 0, fmt.Errorf("reading golden %s: %w", g, err)
		}
		if !bytes.Contains(out.Bytes(), want) {
			return 0, fmt.Errorf("`hetero all` output lacks the %s golden artifact", g)
		}
	}
	return p.out, nil
}

// runReproduce is the reproduce workload: repeated `hetero all` passes, op =
// one pass, until the timed phase is over.
func runReproduce(cfg config, procs int) (*runReport, error) {
	ref, err := reproduceReference(cfg, procs)
	if err != nil {
		return nil, err
	}
	dur := cfg.duration()
	gen0, c0 := selfCPUSeconds(), readCPUTicks()
	t0 := time.Now()
	sampler := startStealSampler(t0)
	var passes []pass
	var starts, ends []time.Duration // each pass's start and end, since t0
	for len(passes) == 0 || time.Since(t0) < dur {
		starts = append(starts, time.Since(t0))
		passes = append(passes, runPass(cfg.hetero, procs, nil))
		ends = append(ends, time.Since(t0))
	}
	elapsed := time.Since(t0).Seconds()
	sampler.finish()
	c1 := readCPUTicks()
	genCPU, steal := selfCPUSeconds()-gen0, c1.steal-c0.steal

	var failed, mismatches int64
	var childCPU float64
	var spans []passSpan // one per pass; a pass with the reference output is a successful op
	var shares []float64
	for k, p := range passes {
		childCPU += p.cpu
		rec := opRecord{i: k, start: starts[k], end: ends[k], status: 200}
		switch {
		case p.err != nil:
			failed++
			rec.fail = failTransport
		case p.out != ref:
			failed++
			mismatches++
			rec.fail = failMismatch
		}
		spans = append(spans, passSpan{start: starts[k], end: ends[k], recs: []opRecord{rec}})
		shares = append(shares, sampler.share(starts[k], ends[k]))
	}
	quiet := quietest(shares)
	tm := passTimeMetrics(pick(spans, quiet))
	if tm.latencySamples == 0 {
		return nil, fmt.Errorf("no `hetero all` pass succeeded (%d attempted)", len(passes))
	}
	var first, rss []float64
	for _, p := range passes {
		first = append(first, p.firstByte.Seconds())
		rss = append(rss, p.maxRSSMB)
	}
	genShare := 0.0
	if tot := genCPU + childCPU; tot > 0 {
		genShare = genCPU / tot
	}
	rep := &runReport{
		attempted:  int64(len(passes)),
		failed:     failed,
		mismatches: mismatches,
		e2e: map[string]metric{
			"setup_s":          {median(pick(first, quiet)), "s"},
			"throughput_ops_s": {tm.opsPerS, "1/s"},
			"p50_ms":           {tm.p50, "ms"},
			"p99_ms":           {tm.p99, "ms"},
			"pass_s":           {tm.passS, "s"},
			"peak_rss_mb":      {median(rss), "MB"},
		},
		// No server runs: every /v1/statz count reads 0.
		layer: statzLayerMetrics(statz{}, statz{}, len(passes)),
	}
	rep.layer["bench.gen_cpu_share"] = metric{genShare, "ratio"}
	rep.layer["host.steal_ticks"] = metric{float64(steal), "count"}
	rep.meta = runMeta(procs, "")
	rep.meta["hetero_gomaxprocs"] = procs
	rep.meta["passes"] = len(passes)
	rep.meta["timed_wall_s"] = elapsed
	rep.meta["quiet_passes"] = len(quiet)
	rep.meta["unfiltered"] = unfilteredMeta(passTimeMetrics(spans), first)
	rep.meta["latency_samples"] = tm.latencySamples
	rep.meta["steal_share"] = stealShare(c0, c1)
	rep.meta["gen_cpu_share"] = genShare
	rep.meta["steal_ticks"] = steal
	return rep, nil
}

// runMeta is the metadata every result carries. commit falls back to the
// benchmark binary's own VCS stamp, then to "unknown" (the checkout may not
// be a git repository).
func runMeta(procs int, commit string) map[string]any {
	if commit == "" {
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					commit = s.Value
				}
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gen_gomaxprocs": procs,
		"go_version":     runtime.Version(),
		"commit":         commit,
	}
}
