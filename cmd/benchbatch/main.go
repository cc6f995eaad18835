// Command benchbatch certifies the memory-aware batch engine. It drives the
// POST /v1/batch path in-process (through api.Server.BatchBody, free of
// net/http overhead) under three workload regimes:
//
//	many_small   batches of many small distinct profiles — the across-profile
//	             fan-out shape the old engine already handled; reported to
//	             prove the new engine does not regress it
//	few_large    a repeated sweep of one batch holding a few very large
//	             profiles (n ≥ the chunked-kernel cutover) — the shape the
//	             size-adaptive kernel and the raw body-front cache exist for
//	dedup_heavy  batches where most entries are bit-identical duplicates of a
//	             few unique profiles, each repeat a distinct spelling so the
//	             raw front never engages — isolating the within-request
//	             dedupe and fragment-render wins
//
// Each regime runs PAIRED SAMPLES: per sample, a fresh tuned server
// (api.NewServer: dedupe, canonical-cache reuse, raw body-front,
// size-adaptive scheduling) and a fresh baseline replicating the PR 3
// /v1/batch engine exactly — one across-profile incr.BatchMeasure fan-out
// plus a parallel moments pass and whole-struct JSON encoding — process the
// same bodies, and the sample's speedup is the wall-time ratio. Each regime
// is a benchcert.MeanCI95 claim: ≥ 5 samples, and the LOW end of the 95%
// confidence interval of the mean speedup must clear the regime threshold,
// so a single lucky run cannot certify and a single noisy one cannot flake
// the build.
//
// The acceptance threshold rides on few_large (≥ 3×): the repeated sweep is
// served from the body-front cache after the first evaluation, so the win is
// algorithmic — one evaluation per sweep instead of one per request — and
// holds on any core count. dedup_heavy must clear a more modest bar; its
// duplicate entries still pay full JSON decode on both sides. many_small is
// report-only. A fourth claim, stream_peak, bounds the streaming render
// path's peak heap against the buffered one (see streamPeakClaim).
//
// It prints one certificate (internal/benchcert) to stdout — the content of
// BENCH_batch.json (see `make bench`) — and exits non-zero if the
// certificate fails benchcert.Check:
//
//	go run ./cmd/benchbatch > BENCH_batch.json
//
// The -quick flag shrinks sizes and samples so CI smoke tests finish fast;
// its output is not a certificate (too few samples).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"hetero/internal/api"
	"hetero/internal/benchcert"
	"hetero/internal/core"
	"hetero/internal/incr"
	"hetero/internal/model"
	"hetero/internal/parallel"
	"hetero/internal/profile"
	"hetero/internal/stats"
)

const (
	fewLargeThreshold   = 3.0
	dedupHeavyThreshold = 1.1
	// streamMemoryRatio is the bounded-memory gate: the streaming path's
	// peak heap growth must stay at or below this fraction of the buffered
	// path's on the certificate workload.
	streamMemoryRatio = 0.25
)

// RegimeResult describes one regime's paired replays; its speedup is the
// regime's claim.
type RegimeResult struct {
	Name              string  `json:"name"`
	RequestsPerSample int     `json:"requests_per_sample"`
	ProfilesPerBatch  int     `json:"profiles_per_batch"`
	ProfileN          int     `json:"profile_n"`
	BaselineOpsPerSec float64 `json:"baseline_ops_per_sec"`
	TunedOpsPerSec    float64 `json:"tuned_ops_per_sec"`
}

// MemoryShape describes the bounded-peak-memory regime (see
// streamPeakClaim).
type MemoryShape struct {
	ProfilesPerBatch int `json:"profiles_per_batch"`
	ProfileN         int `json:"profile_n"`
	ResponseBytes    int `json:"response_bytes"`
}

// Report is the certificate's descriptive block.
type Report struct {
	Baseline string         `json:"baseline"`
	Regimes  []RegimeResult `json:"regimes"`
	Memory   MemoryShape    `json:"memory"`
}

func main() {
	quick := flag.Bool("quick", false, "shrink sizes and samples (smoke test; not a certificate)")
	flag.Parse()
	benchcert.Emit("benchbatch", buildCert(*quick), *quick)
}

// regimeSpec is one workload shape: bodies(sample) returns the request
// bodies one sample replays in order (a fresh server per side per sample).
type regimeSpec struct {
	name      string
	profiles  int // per batch
	n         int // ρ-values per profile
	threshold float64
	bodies    func(sample int) [][]byte
}

func buildCert(quick bool) *benchcert.Cert {
	// Like benchserve, the certificate is defined at GOMAXPROCS ≥ 8 so the
	// size-adaptive scheduler has a pool worth turning inward.
	if runtime.GOMAXPROCS(0) < 8 {
		runtime.GOMAXPROCS(8)
	}
	samples := benchcert.MinSamples
	repeats := 8
	smallProfiles, smallN := 512, 24
	largeN := 1 << 16
	dedupEntries, dedupUniq, dedupN := 192, 12, 4096
	if quick {
		samples, repeats = 2, 3
		smallProfiles, smallN = 64, 8
		largeN = core.ParallelCutover
		dedupEntries, dedupUniq, dedupN = 24, 4, 512
	}

	rep := &Report{
		Baseline: "S25 /v1/batch engine: across-profile incr.BatchMeasure fan-out + moments pass + whole-struct JSON encode, no batch caching",
	}
	cert := &benchcert.Cert{Host: benchcert.ThisHost(), Report: rep}

	regimes := []regimeSpec{
		{
			// Distinct bodies every request: no layer can reuse anything, so
			// this is the honest head-to-head of the two compute paths.
			name: "many_small", profiles: smallProfiles, n: smallN, threshold: 0,
			bodies: func(sample int) [][]byte {
				out := make([][]byte, repeats)
				for r := range out {
					out[r] = batchBody(randomProfiles(smallProfiles, smallN, uint64(1+sample*64+r)), 0)
				}
				return out
			},
		},
		{
			// One body, replayed: the §4.3 sweep shape. The tuned side
			// evaluates once and serves the rest from the body-front cache.
			name: "few_large", profiles: 3, n: largeN, threshold: fewLargeThreshold,
			bodies: func(sample int) [][]byte {
				body := batchBody(randomProfiles(3, largeN, uint64(101+sample)), 0)
				out := make([][]byte, repeats)
				for r := range out {
					out[r] = body
				}
				return out
			},
		},
		{
			// Mostly-duplicate entries, but every repeat respells the request
			// (a fresh tau) so neither raw body-front nor canonical cache can
			// carry work across repeats — the speedup is dedupe + fragment
			// rendering alone, decode cost paid equally by both sides.
			name: "dedup_heavy", profiles: dedupEntries, n: dedupN, threshold: dedupHeavyThreshold,
			bodies: func(sample int) [][]byte {
				uniq := randomProfiles(dedupUniq, dedupN, uint64(701+sample))
				entries := make([][]float64, dedupEntries)
				for i := range entries {
					entries[i] = uniq[i%dedupUniq]
				}
				out := make([][]byte, repeats)
				for r := range out {
					out[r] = batchBody(entries, 0.101+0.0001*float64(r))
				}
				return out
			},
		},
	}

	for _, spec := range regimes {
		r, claim := runRegime(spec, samples, repeats)
		rep.Regimes = append(rep.Regimes, r)
		cert.Claims = append(cert.Claims, claim)
	}

	rep.Memory = MemoryShape{ProfilesPerBatch: 4096, ProfileN: 1024}
	if quick {
		rep.Memory.ProfilesPerBatch = 1024
	}
	cert.Claims = append(cert.Claims, streamPeakClaim(&rep.Memory, samples))
	return cert
}

// streamPeakClaim measures peak heap growth for one large batch served
// buffered (BatchBody) vs streamed (BatchBodyStream into a hashing writer)
// on cache-disabled servers, so no layer retains bytes. The claim is the
// ratio of summed stream peaks to summed buffered peaks, ≤
// streamMemoryRatio. Full-precision ρ spellings keep the response (the
// thing streaming bounds) dominant over the decoded profiles (the floor both
// paths share). The streamed bytes are hash-checked against the buffered
// response, so the certificate also witnesses bit-identity at full scale.
func streamPeakClaim(shape *MemoryShape, samples int) benchcert.Claim {
	profiles, n := shape.ProfilesPerBatch, shape.ProfileN
	// A tight GC keeps sampled HeapAlloc tracking live memory instead of
	// accumulated garbage — without it the decode append-growth and
	// per-fragment render garbage on the streaming side inflates its "peak"
	// by whole GC cycles. 5% is slow but this regime is untimed.
	defer debug.SetGCPercent(debug.SetGCPercent(5))
	body := batchBody(fullPrecisionProfiles(profiles, n, 901), 0)

	// One unmeasured pass per side: the first serve pays one-off heap growth
	// (allocator arenas, stack growth) that would otherwise inflate sample 0.
	{
		s := api.NewServerCacheSize(0)
		if status, _, err := s.BatchBodyStream(context.Background(), &countingHashWriter{}, body); status != 200 || err != nil {
			panic("benchbatch: warm-up stream serve failed")
		}
		s = api.NewServerCacheSize(0)
		if status, _, _ := s.BatchBody(body); status != 200 {
			panic("benchbatch: warm-up buffered serve failed")
		}
	}

	var streamPeaks, bufPeaks []float64
	for k := 0; k < samples; k++ {
		var streamed countingHashWriter
		streamPeak := benchcert.PeakHeap(func() {
			s := api.NewServerCacheSize(0) // cache-disabled: nothing retained
			status, msg, err := s.BatchBodyStream(context.Background(), &streamed, body)
			if status != 200 || err != nil {
				panic(fmt.Sprintf("benchbatch: stream serve failed: status %d %s err %v", status, msg, err))
			}
		})
		var bufHash uint32
		bufPeak := benchcert.PeakHeap(func() {
			s := api.NewServerCacheSize(0)
			status, resp, msg := s.BatchBody(body)
			if status != 200 {
				panic(fmt.Sprintf("benchbatch: buffered serve failed: status %d %s", status, msg))
			}
			bufHash = crc32.Checksum(resp, castagnoli)
			shape.ResponseBytes = len(resp)
		})
		if streamed.h != bufHash || streamed.n != shape.ResponseBytes {
			panic(fmt.Sprintf("benchbatch: streamed bytes diverge from buffered (%d vs %d bytes)",
				streamed.n, shape.ResponseBytes))
		}
		streamPeaks = append(streamPeaks, float64(streamPeak))
		bufPeaks = append(bufPeaks, float64(bufPeak))
	}
	return benchcert.NewClaim("stream_peak", benchcert.RatioOfSums, benchcert.AtMost, streamMemoryRatio,
		streamPeaks, bufPeaks)
}

// countingHashWriter digests (CRC32-Castagnoli) and counts the stream
// without retaining it — the memory-honest stand-in for a network socket.
type countingHashWriter struct {
	h uint32
	n int
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (w *countingHashWriter) Write(p []byte) (int, error) {
	w.h = crc32.Update(w.h, castagnoli, p)
	w.n += len(p)
	return len(p), nil
}

// fullPrecisionProfiles draws count normalized n-computer profiles at full
// float64 precision (~18-byte spellings): the certificate shape where the
// rendered response, not the decoded floats, dominates peak memory.
func fullPrecisionProfiles(count, n int, seed uint64) [][]float64 {
	rng := stats.NewRNG(seed)
	out := make([][]float64, count)
	for c := range out {
		out[c] = []float64(profile.RandomNormalized(rng, n))
	}
	return out
}

// runRegime collects paired samples for one workload shape; its claim is
// the mean baseline/tuned wall-time ratio, gated at its 95% CI low end.
func runRegime(spec regimeSpec, samples, repeats int) (RegimeResult, benchcert.Claim) {
	r := RegimeResult{
		Name:              spec.name,
		RequestsPerSample: repeats,
		ProfilesPerBatch:  spec.profiles,
		ProfileN:          spec.n,
	}
	// One untimed paired replay first: the process's first pass over a
	// regime pays one-off costs (heap growth, page faults, branch warmup)
	// that would otherwise land entirely in sample 0 and widen the CI.
	warm := spec.bodies(samples)
	replay(warm, baselineBatchServer())
	replay(warm, tunedBatchServer())
	var baseNs, tunedNs []float64
	var baseWall, tunedWall time.Duration
	for k := 0; k < samples; k++ {
		bodies := spec.bodies(k)
		base := replay(bodies, baselineBatchServer())
		tuned := replay(bodies, tunedBatchServer())
		baseWall += base
		tunedWall += tuned
		baseNs = append(baseNs, float64(base))
		tunedNs = append(tunedNs, float64(tuned))
	}
	ops := samples * repeats
	r.BaselineOpsPerSec = float64(ops) / baseWall.Seconds()
	r.TunedOpsPerSec = float64(ops) / tunedWall.Seconds()
	return r, benchcert.NewClaim(spec.name, benchcert.MeanCI95, benchcert.AtLeast, spec.threshold, baseNs, tunedNs)
}

// batchFunc serves one raw /v1/batch body.
type batchFunc func(body []byte) (status int, resp []byte)

// tunedBatchServer is the engine under test, on a fresh server.
func tunedBatchServer() batchFunc {
	s := api.NewServer()
	return func(body []byte) (int, []byte) {
		status, resp, _ := s.BatchBody(body)
		return status, resp
	}
}

// baselineBatchServer replicates the PR 3 /v1/batch engine exactly: decode,
// one across-profile fan-out for the measures, a parallel moments pass, and
// json encoding of the whole response struct. No dedupe, no cache layer —
// the configuration the tentpole's speedups are claimed against.
func baselineBatchServer() batchFunc {
	defaults := model.Table1()
	return func(body []byte) (int, []byte) {
		var req api.BatchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return 400, nil
		}
		m := defaults
		if req.Params != nil {
			m = *req.Params
		}
		if err := m.Validate(); err != nil {
			return 400, nil
		}
		profiles := make([]profile.Profile, len(req.Profiles))
		for i, rhos := range req.Profiles {
			p, err := profile.New(rhos...)
			if err != nil {
				return 400, nil
			}
			profiles[i] = p
		}
		measures := incr.BatchMeasure(m, profiles, 0)
		results := make([]api.MeasureResponse, len(profiles))
		parallel.ForEach(0, len(profiles), func(i int) {
			p := profiles[i]
			results[i] = api.MeasureResponse{
				Profile:  p,
				X:        measures[i].X,
				HECR:     measures[i].HECR,
				WorkRate: measures[i].WorkRate,
				Mean:     p.Mean(),
				Variance: p.Variance(),
				GeoMean:  p.GeoMean(),
			}
		})
		out, err := json.Marshal(api.BatchResponse{Count: len(results), Results: results})
		if err != nil {
			return 500, nil
		}
		return 200, append(out, '\n')
	}
}

// replay serves every body in order and returns the wall time of the whole
// replay (the sweep is sequential: batch requests are throughput work, and
// concurrency contention is benchserve's domain).
func replay(bodies [][]byte, serve batchFunc) time.Duration {
	runtime.GC() // level the GC state so paired runs compare fairly
	t0 := time.Now()
	for _, body := range bodies {
		status, resp := serve(body)
		if status != 200 || len(resp) == 0 {
			panic(fmt.Sprintf("benchbatch: batch request failed with status %d", status))
		}
	}
	return time.Since(t0)
}

// randomProfiles draws count normalized n-computer profiles with 3-decimal
// spellings — realistic measured utilizations whose JSON stays compact.
func randomProfiles(count, n int, seed uint64) [][]float64 {
	rng := stats.NewRNG(seed)
	out := make([][]float64, count)
	for c := range out {
		p := profile.RandomNormalized(rng, n)
		rhos := make([]float64, n)
		for i, rho := range p {
			r := math.Round(rho*1000) / 1000
			if r < 0.001 {
				r = 0.001
			}
			if r > 1 {
				r = 1
			}
			rhos[i] = r
		}
		rhos[0] = 1 // keep the profile normalized after rounding
		out[c] = rhos
	}
	return out
}

// batchBody renders one POST /v1/batch request body; tau > 0 overrides the
// default parameters so respelled repeats stay cache-distinct.
func batchBody(profiles [][]float64, tau float64) []byte {
	req := api.BatchRequest{Profiles: profiles}
	if tau > 0 {
		m := model.Table1()
		m.Tau = tau
		req.Params = &m
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return body
}
