// Package benchcert is the one schema and the one checker of the
// repository's benchmark certificates (the BENCH_*.json documents).
//
// A certificate is a host block and a list of claims. A claim carries its
// raw per-sample numerators and denominators, a statistic over their
// ratios, a direction, an optional threshold and the value the generator
// reports. Check re-derives every value from the raw samples, so a
// certificate cannot say more than its samples do; it gates thresholds and
// holds each gated claim against the committed certificate of the same
// host shape. cmd/benchserve, cmd/benchbatch, cmd/benchfault and
// cmd/benchincr build their certificates with NewClaim and take their exit
// status from Check (through Emit); cmd/checkbench runs the same Check
// against bench_history/.
package benchcert

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
)

// Stat names how a claim reduces its per-sample ratios num[i]/den[i].
type Stat string

const (
	// MeanCI95 is the mean of the per-sample ratios, gated at the low end
	// of its two-sided 95% Student-t confidence interval (CILow): one
	// lucky sample cannot certify, one noisy one cannot mask. ≥ only.
	MeanCI95 Stat = "mean_ci95"
	// RatioOfSums is Σnum / Σden: a rate over the whole run (evaluations
	// per key, useful work per unit, stream peak per buffered peak).
	RatioOfSums Stat = "ratio_of_sums"
	// Worst is the least per-sample ratio of a ≥ claim and the greatest of
	// a ≤ claim: a bound every sample must keep.
	Worst Stat = "worst"
)

// Direction says which side of its threshold a claim must land on.
type Direction string

const (
	AtLeast Direction = ">="
	AtMost  Direction = "<="
)

const (
	// MinSamples is the evidence floor of a gated claim: with fewer
	// samples it cannot certify, so a -quick run never passes.
	MinSamples = 5
	// tolerance is the relative slack between a reported value and the
	// one derived from the raw samples.
	tolerance = 1e-3
	// historyKeep and historyGrow bound a gated claim against its
	// committed value: a ≥ claim keeps at least 70% of it, a ≤ claim
	// stays within 120%. The absolute threshold already guards
	// correctness; these catch a change that, say, halves a certified win
	// without tripping its floor.
	historyKeep = 0.70
	historyGrow = 1.20
)

// Host is the machine shape a certificate was taken on. History compares
// only certificates whose NumCPU and GOMAXPROCS agree.
type Host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// ThisHost reports the running process's shape; call it after any
// runtime.GOMAXPROCS change the generator makes.
func ThisHost() Host {
	return Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// Claim is one certified (or, without a threshold, reported) quantity.
type Claim struct {
	Name      string    `json:"name"`
	Stat      Stat      `json:"stat"`
	Direction Direction `json:"direction"`
	// Threshold 0 means report-only: derived and checked, never gated.
	Threshold float64 `json:"threshold,omitempty"`
	// Value is the statistic: the mean for MeanCI95, whose gate is CILow.
	Value float64   `json:"value"`
	CILow *float64  `json:"ci_low,omitempty"`
	Num   []float64 `json:"num"`
	Den   []float64 `json:"den"`
}

// Cert is one BENCH_*.json document. Report holds the generator's
// descriptive figures (latencies, allocations, sizes); Check ignores it.
type Cert struct {
	Host   Host    `json:"host"`
	Claims []Claim `json:"claims"`
	Report any     `json:"report,omitempty"`
}

// NewClaim builds a claim over paired samples and fills in the values Check
// derives, so a generator reports exactly what the checker will re-derive.
// threshold 0 makes it report-only.
func NewClaim(name string, stat Stat, dir Direction, threshold float64, num, den []float64) Claim {
	c := Claim{Name: name, Stat: stat, Direction: dir, Threshold: threshold, Num: num, Den: den}
	if v, lo, err := c.derive(); err == nil {
		c.Value, c.CILow = v, lo
	}
	return c
}

// derive computes the claim's statistic (and, for MeanCI95, its CI low end)
// from the raw samples. Every sample must be a finite non-negative
// numerator over a positive denominator.
func (c Claim) derive() (float64, *float64, error) {
	if len(c.Num) == 0 || len(c.Num) != len(c.Den) {
		return 0, nil, fmt.Errorf("raw samples missing or unpaired: %d numerators, %d denominators", len(c.Num), len(c.Den))
	}
	ratios := make([]float64, len(c.Num))
	var sumNum, sumDen float64
	for i, n := range c.Num {
		d := c.Den[i]
		if !(n >= 0 && d > 0) || math.IsInf(n, 0) || math.IsInf(d, 0) {
			return 0, nil, fmt.Errorf("sample %d: %g / %g is not a finite non-negative ratio", i, n, d)
		}
		ratios[i] = n / d
		sumNum += n
		sumDen += d
	}
	switch c.Stat {
	case MeanCI95:
		mean, lo := meanCI95(ratios)
		return mean, &lo, nil
	case RatioOfSums:
		return sumNum / sumDen, nil, nil
	case Worst:
		w := ratios[0]
		for _, r := range ratios[1:] {
			if (c.Direction == AtLeast && r < w) || (c.Direction == AtMost && r > w) {
				w = r
			}
		}
		return w, nil, nil
	}
	return 0, nil, fmt.Errorf("unknown statistic %q", c.Stat)
}

// check derives the claim, rejects a reported value off by more than
// tolerance, and gates a thresholded claim.
func (c Claim) check() error {
	if c.Direction != AtLeast && c.Direction != AtMost {
		return fmt.Errorf("direction %q is neither %s nor %s", c.Direction, AtLeast, AtMost)
	}
	value, lo, err := c.derive()
	if err != nil {
		return err
	}
	if !near(c.Value, value) {
		return fmt.Errorf("reported value %g disagrees with its raw samples (%g)", c.Value, value)
	}
	gated := value
	if lo != nil {
		if c.Direction != AtLeast {
			return fmt.Errorf("a %s claim is gated at its CI low end, so it must be %s", MeanCI95, AtLeast)
		}
		if c.CILow == nil || !near(*c.CILow, *lo) {
			return fmt.Errorf("reported ci_low disagrees with its raw samples (%g)", *lo)
		}
		gated = *lo
	}
	if c.Threshold == 0 {
		return nil
	}
	if len(c.Num) < MinSamples {
		return fmt.Errorf("certified from %d samples, need ≥ %d (was it generated with -quick?)", len(c.Num), MinSamples)
	}
	if !meets(gated, c.Direction, c.Threshold) {
		return fmt.Errorf("%s %g misses its threshold %s %g", c.Stat, gated, c.Direction, c.Threshold)
	}
	return nil
}

// near reports whether reported is within tolerance of derived.
func near(reported, derived float64) bool {
	return math.Abs(reported-derived) <= tolerance*math.Abs(derived)+1e-12
}

// meets compares v against bound in direction dir, with a relative 1e-9
// slack so that a ratio of sums of exact doubles (duplication overhead
// 2 ≤ 2) is not lost to rounding.
func meets(v float64, dir Direction, bound float64) bool {
	if dir == AtLeast {
		return v >= bound*(1-1e-9)
	}
	return v <= bound*(1+1e-9)
}

// Check derives and gates every claim of cur. When committed is non-nil
// (the committed certificate of the same name), it also applies the one
// history rule: if both were taken on the same host shape (num_cpu and
// GOMAXPROCS), every claim committed gates must still be gated the same
// way, and its value must keep 70% of the committed one (≥ claims) or stay
// within 120% of it (≤ claims). A host-shape mismatch fails: history is
// never skipped silently.
func Check(cur, committed *Cert) error {
	var errs []error
	if len(cur.Claims) == 0 {
		errs = append(errs, errors.New("certificate carries no claims"))
	}
	byName := make(map[string]Claim, len(cur.Claims))
	for _, c := range cur.Claims {
		if _, dup := byName[c.Name]; dup {
			errs = append(errs, fmt.Errorf("claim %q appears twice", c.Name))
		}
		byName[c.Name] = c
		if err := c.check(); err != nil {
			errs = append(errs, fmt.Errorf("claim %q: %w", c.Name, err))
		}
	}
	if committed != nil {
		errs = append(errs, history(byName, cur.Host, committed)...)
	}
	return errors.Join(errs...)
}

// history holds the gated claims of committed against cur's (byName).
func history(byName map[string]Claim, host Host, committed *Cert) []error {
	was := committed.Host
	if host.NumCPU != was.NumCPU || host.GOMAXPROCS != was.GOMAXPROCS {
		return []error{fmt.Errorf("host shape num_cpu %d, GOMAXPROCS %d differs from the committed history's num_cpu %d, GOMAXPROCS %d; "+
			"history compares like shapes only: re-seed it by copying a certificate regenerated on this host into bench_history/, and say why in CHANGES.md",
			host.NumCPU, host.GOMAXPROCS, was.NumCPU, was.GOMAXPROCS)}
	}
	var errs []error
	for _, prev := range committed.Claims {
		if prev.Threshold == 0 {
			continue
		}
		c, ok := byName[prev.Name]
		if !ok || c.Stat != prev.Stat || c.Direction != prev.Direction || c.Threshold != prev.Threshold {
			errs = append(errs, fmt.Errorf("claim %q: the committed history gates it as %s %s %g; the current certificate does not",
				prev.Name, prev.Stat, prev.Direction, prev.Threshold))
			continue
		}
		prevValue, _, err := prev.derive()
		if err != nil {
			errs = append(errs, fmt.Errorf("claim %q: committed history: %w", prev.Name, err))
			continue
		}
		if c.Direction == AtLeast && c.Value < historyKeep*prevValue {
			errs = append(errs, fmt.Errorf("claim %q: %g fell below %.0f%% of the committed %g",
				c.Name, c.Value, historyKeep*100, prevValue))
		}
		if c.Direction == AtMost && c.Value > historyGrow*prevValue {
			errs = append(errs, fmt.Errorf("claim %q: %g grew past %.0f%% of the committed %g",
				c.Name, c.Value, historyGrow*100, prevValue))
		}
	}
	return errs
}

// Load reads one certificate. Unknown fields are an error, so a document in
// another schema fails loudly instead of reading as an empty certificate.
func Load(path string) (*Cert, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var c Cert
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("not a certificate: %w", err)
	}
	return &c, nil
}

// Emit is a generator's last step: it prints c to stdout and exits non-zero
// if Check rejects it. A quick run is a smoke test, not a certificate: its
// failures are printed and the exit status stays 0.
func Emit(tool string, c *Cert, quick bool) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(1)
	}
	if err := Check(c, nil); err != nil {
		if quick {
			fmt.Fprintf(os.Stderr, "%s: -quick output is not a certificate:\n%v\n", tool, err)
			return
		}
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(1)
	}
}
