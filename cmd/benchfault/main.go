// Command benchfault certifies the cost of the fault layer. It times, via
// testing.Benchmark, at n = 1024:
//
//   - RunCEP vs RunCEPFaulty with an empty fault plan (acceptance: the
//     fault-aware integrator's no-fault path costs ≤ 2× the plain
//     simulator — it performs the same event sequence plus timeline
//     lookups), and
//   - the replanner under a seeded multi-fault plan, reported for scale
//     (informational; there is no fault-free baseline for replanning).
//
// The overhead claim is the ratio of summed faulty and plain ns/op over
// five paired samples. It also certifies the deterministic elastic-churn
// robustness regime (see churnClaims): replicated redundancy must
// out-salvage the ride-vs-replan server by ≥1.2× aggregate useful work on
// the fixed heavy-churn plan, while its fault-free duplication overhead
// stays ≤2×.
//
// It prints one certificate (internal/benchcert) to stdout — the content of
// BENCH_fault.json (see `make bench`) — and exits non-zero if the
// certificate fails benchcert.Check:
//
//	go run ./cmd/benchfault > BENCH_fault.json
//
// The -quick flag takes one sample of three iterations per timing so CI
// smoke tests finish in well under a second; its output is not a
// certificate.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"testing"

	"hetero/internal/benchcert"
	"hetero/internal/fault"
	"hetero/internal/model"
	"hetero/internal/profile"
	"hetero/internal/sim"
	"hetero/internal/stats"
)

// ReplanResult reports the replanner's cost under a seeded fault plan.
// Every fault event costs one ride-vs-replan decision (a candidate CEP
// solve plus an exact rollout), whether or not a new round is adopted, so
// ns_per_decision is the meaningful unit cost.
type ReplanResult struct {
	N             int     `json:"n"`
	Faults        int     `json:"faults"`
	Decisions     int     `json:"decisions"`
	Rounds        int     `json:"rounds"`
	NsPerOp       float64 `json:"ns_per_op"`
	NsPerDecision float64 `json:"ns_per_decision"`
}

// ChurnShape describes the elastic-churn regime's fixed setup (see
// churnClaims).
type ChurnShape struct {
	BaseN  int     `json:"base_n"`
	Joins  int     `json:"joins"`
	Seeds  int     `json:"seeds"`
	Jitter float64 `json:"jitter"`
	Scheme string  `json:"scheme"`
}

// Report is the certificate's descriptive block.
type Report struct {
	Replan ReplanResult `json:"replan"`
	Churn  ChurnShape   `json:"churn"`
}

func main() {
	quick := flag.Bool("quick", false, "single short iteration per benchmark (smoke test; not a certificate)")
	flag.Parse()
	cert, err := buildCert(*quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchfault:", err)
		os.Exit(1)
	}
	benchcert.Emit("benchfault", cert, *quick)
}

func buildCert(quick bool) (*benchcert.Cert, error) {
	const n = 1024
	const lifespan = 3600.0
	m := model.Table1()
	p := profile.RandomNormalized(stats.NewRNG(n), n)
	pr, err := sim.OptimalFIFO(m, p, lifespan)
	if err != nil {
		return nil, err
	}
	var rep Report
	cert := &benchcert.Cert{Host: benchcert.ThisHost(), Report: &rep}

	// Paired samples of the empty-plan overhead: faulty over plain ns/op.
	samples := benchcert.MinSamples
	if quick {
		samples = 1
	}
	var plain, faulty []float64
	for k := 0; k < samples; k++ {
		plain = append(plain, benchcert.NsPerOp(quick, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunCEP(m, p, pr, sim.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}))
		faulty = append(faulty, benchcert.NsPerOp(quick, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunCEPFaulty(m, p, pr, fault.Plan{}, sim.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	cert.Claims = append(cert.Claims, benchcert.NewClaim("empty_plan_overhead",
		benchcert.RatioOfSums, benchcert.AtMost, 2, faulty, plain))

	plan := fault.Random(stats.NewRNG(7), n, lifespan, 16)
	first, err := sim.SimulateFaulty(context.Background(), m, p, lifespan, plan, true, sim.Options{})
	if err != nil {
		return nil, err
	}
	rep.Replan = ReplanResult{N: n, Faults: len(plan.Faults), Decisions: len(first.Decisions), Rounds: len(first.Rounds)}
	rep.Replan.NsPerOp = benchcert.NsPerOp(quick, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.SimulateFaulty(context.Background(), m, p, lifespan, plan, true, sim.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if rep.Replan.Decisions > 0 {
		rep.Replan.NsPerDecision = rep.Replan.NsPerOp / float64(rep.Replan.Decisions)
	}

	churn, err := churnClaims(&rep.Churn)
	if err != nil {
		return nil, err
	}
	cert.Claims = append(cert.Claims, churn...)
	return cert, nil
}

// heavyChurnPlan is the fixed elastic plan behind the churn regime,
// mirroring TestSimulateElasticRedundancyBeatsSalvageUnderChurn: every
// disruption class plus a two-machine join cohort against an 8-machine
// ρ = 0.5 base cluster over a 3600 lifespan.
func heavyChurnPlan() fault.Plan {
	return fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Slowdown, Computer: 0, At: 500, Factor: 7},
		{Kind: fault.Crash, Computer: 2, At: 1300},
		{Kind: fault.Outage, Computer: 4, At: 2000, Until: 3200},
		{Kind: fault.Slowdown, Computer: 6, At: 2600, Factor: 9},
		{Kind: fault.Join, Computer: 8, At: 600, Rho: 0.5},
		{Kind: fault.Join, Computer: 9, At: 600, Rho: 0.5},
	}}
}

// churnClaims runs the deterministic elastic-churn robustness regime over
// five jitter seeds of the heavy-churn plan, with unpredicted ρ-jitter. Two
// claims, no timing involved:
//
//   - churn: the margined replicated scheme returns ≥ 1.2× the useful work
//     of the clairvoyant ride-vs-replan salvager, summed over the seeds;
//   - churn.overhead: the same scheme's fault-free dispatched/useful ratio
//     under each seed's jitter stays ≤ 2 — deliberate duplication, no more.
func churnClaims(shape *ChurnShape) ([]benchcert.Claim, error) {
	m := model.Table1()
	const lifespan = 3600.0
	p := make(profile.Profile, 8)
	for i := range p {
		p[i] = 0.5
	}
	red := sim.Redundancy{Replicas: 2, Margin: 0.15}
	*shape = ChurnShape{BaseN: len(p), Joins: 2, Seeds: 5, Jitter: 0.15, Scheme: red.String()}
	plan := heavyChurnPlan()
	var replan, redundant, dispatched, useful []float64
	for seed := uint64(1); seed <= uint64(shape.Seeds); seed++ {
		opt := sim.Options{RhoJitter: shape.Jitter, Seed: seed}
		rp, err := sim.SimulateElastic(context.Background(), m, p, lifespan, plan,
			sim.ElasticPolicy{Replan: true}, opt)
		if err != nil {
			return nil, err
		}
		rd, err := sim.SimulateElastic(context.Background(), m, p, lifespan, plan,
			sim.ElasticPolicy{Redundancy: red}, opt)
		if err != nil {
			return nil, err
		}
		calm, err := sim.SimulateElastic(context.Background(), m, p, lifespan, fault.Plan{},
			sim.ElasticPolicy{Redundancy: red}, opt)
		if err != nil {
			return nil, err
		}
		replan = append(replan, rp.Useful)
		redundant = append(redundant, rd.Useful)
		dispatched = append(dispatched, calm.Dispatched)
		useful = append(useful, calm.Useful)
	}
	return []benchcert.Claim{
		benchcert.NewClaim("churn", benchcert.RatioOfSums, benchcert.AtLeast, 1.2, redundant, replan),
		benchcert.NewClaim("churn.overhead", benchcert.RatioOfSums, benchcert.AtMost, 2, dispatched, useful),
	}, nil
}
