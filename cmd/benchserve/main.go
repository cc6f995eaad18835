// Command benchserve certifies the serving hot-path overhaul. It drives the
// /v1/measure path in-process (through api.Server.MeasureQuery, free of
// net/http overhead) under eight load regimes:
//
//	hit           concurrent requests over a warm working set of small
//	              profiles
//	miss          every request a distinct cold small profile
//	mixed         thundering-herd waves: all workers demand the same fresh
//	              large profile at once, interleaved with warm hits — the
//	              regime the singleflight + raw-query layers exist for
//	large_n       a repeated identical large profile (n ≥ the chunked-kernel
//	              cutover), measuring the raw-query fast path
//	many_clients  hundreds of concurrent clients sweeping *distinct* small
//	              keys (one parameter point each) over a shared fresh
//	              profile per wave — the paper's §4.3 sensitivity-sweep
//	              shape, which singleflight cannot coalesce. Measures the
//	              cross-request admission batcher (EnableCoalesce) against
//	              the same server without it.
//	fleet         a round-robin client over four in-process replicas with
//	              the distributed cache tier on vs. the same fleet without
//	              it (see fleet.go). -fleet-chaos runs the availability
//	              drill instead: one replica dies mid-run and every request
//	              must still be served byte-identically (`make chaos`).
//	sweep         repeated large streamed batch sweeps, spill tier on vs.
//	              off (see sweep.go); -spill-chaos is its corruption drill.
//	restart       a write-through spill tier reopened under an empty memory
//	              tier (see restart.go).
//
// The first four regimes run against two servers built from the same code:
// the tuned configuration (sharded cache, singleflight coalescing,
// raw-query front layer) and the historical baseline (single-lock cache, no
// coalescing, no raw layer — api.NewServerCacheOpts(n, 1, false)). Each is a
// claim on the baseline/tuned wall-time ratio; hit, miss and large_n are
// report-only, and the report block records ops/sec for both sides and
// tuned-side p50/p99 latency and allocations per operation.
//
// The gated claims (thresholds in DESIGN.md "Benchmark certificates"):
//
//   - mixed: tuned throughput ≥ 3× baseline, summed over the herd waves, at
//     GOMAXPROCS ≥ 8 (forced to 16 when the host gives less). On a
//     single-core host the win is algorithmic, not parallel: the baseline
//     evaluates a herd of identical misses once per worker, the tuned path
//     exactly once per wave.
//   - many_clients: the LOW end of the 95% confidence interval of the
//     coalesced/uncoalesced throughput ratio over 5 paired samples must be
//     ≥ 2×. Per flush the batcher pays the profile-sized costs (decode,
//     canonical suffix, moments, echo) once per distinct profile instead of
//     once per request, so a herd of N distinct small queries collapses
//     from N pool dispatches into ~N/flush-size coalesced dispatches.
//   - fleet, sweep and restart: see their files.
//
// It prints one certificate (internal/benchcert) to stdout — the content of
// BENCH_serve.json (see `make bench`) — and exits non-zero if the
// certificate fails benchcert.Check:
//
//	go run ./cmd/benchserve > BENCH_serve.json
//
// The -quick flag shrinks every regime so CI smoke tests finish fast; its
// output is not a certificate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hetero/internal/api"
	"hetero/internal/benchcert"
	"hetero/internal/core"
	"hetero/internal/profile"
	"hetero/internal/stats"
)

// mixedThreshold is the certified floor for baseline/tuned wall time
// (equal request counts, so tuned/baseline throughput) in the mixed regime.
const mixedThreshold = 3.0

// manyClientsThreshold is the certified floor for the 95% CI low end of the
// coalesced/uncoalesced throughput ratio in the many_clients regime.
const manyClientsThreshold = 2.0

// RegimeResult describes one load regime on the tuned side; the regime's
// ratios live in its claims.
type RegimeResult struct {
	Name              string  `json:"name"`
	Requests          int     `json:"requests"`
	BaselineOpsPerSec float64 `json:"baseline_ops_per_sec,omitempty"`
	TunedOpsPerSec    float64 `json:"tuned_ops_per_sec"`
	TunedP50Ms        float64 `json:"tuned_p50_ms"`
	TunedP99Ms        float64 `json:"tuned_p99_ms"`
	TunedAllocsPerOp  float64 `json:"tuned_allocs_per_op"`
}

func main() {
	quick := flag.Bool("quick", false, "shrink every regime (smoke test; not a certificate)")
	fleetChaos := flag.Bool("fleet-chaos", false, "run only the fleet chaos drill: kill one replica mid-run and require every request to survive byte-identically (see `make chaos`)")
	spillChaos := flag.Bool("spill-chaos", false, "run only the spill chaos drill: bit-flip every on-disk segment under a warm spill tier and require byte-identical fallback to evaluation (see `make chaos`)")
	flag.Parse()
	switch {
	case *spillChaos:
		printDrill(runSpillChaos())
	case *fleetChaos:
		if runtime.GOMAXPROCS(0) < 16 {
			runtime.GOMAXPROCS(16)
		}
		printDrill(runFleetChaos())
	default:
		benchcert.Emit("benchserve", buildCert(*quick), *quick)
	}
}

// printDrill prints a chaos drill's result. A drill that returns at all
// passed: every divergence or failed request panics.
func printDrill(r RegimeResult) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "benchserve:", err)
		os.Exit(1)
	}
}

// sizes are the regime dimensions; quick mode shrinks them all.
type sizes struct {
	workers     int // concurrent load generators
	warmKeys    int // hit-regime working set
	hitIters    int // hit requests per worker
	missIters   int // distinct cold keys per worker
	waves       int // mixed-regime herd waves
	warmPerWave int // warm hits each worker adds per wave
	largeN      int // profile size for mixed / large_n
	largeIters  int // large_n repeats per worker
}

func defaultSizes(quick bool) sizes {
	if quick {
		return sizes{workers: 4, warmKeys: 8, hitIters: 50, missIters: 50,
			waves: 1, warmPerWave: 2, largeN: 2 * core.ParallelCutover, largeIters: 4}
	}
	return sizes{workers: 16, warmKeys: 64, hitIters: 2000, missIters: 1000,
		waves: 6, warmPerWave: 4, largeN: 1 << 16, largeIters: 10}
}

func buildCert(quick bool) *benchcert.Cert {
	// The certificate is defined at GOMAXPROCS ≥ 8; force 16 so the herd
	// regimes exercise real scheduler interleaving even on small hosts.
	if runtime.GOMAXPROCS(0) < 16 {
		runtime.GOMAXPROCS(16)
	}
	sz := defaultSizes(quick)
	cert := &benchcert.Cert{Host: benchcert.ThisHost()}
	var regimes []RegimeResult

	newBaseline := func() *api.Server {
		return api.NewServerCacheOpts(api.DefaultMeasureCacheSize, 1, false)
	}
	newTuned := func() *api.Server { return api.NewServer() }

	warm := warmQueries(sz.warmKeys)
	largeBase := largeProfileQuery(sz.largeN)

	for _, regime := range []struct {
		name      string
		threshold float64
		run       func(s *api.Server) loadStats
	}{
		{"hit", 0, func(s *api.Server) loadStats {
			warmServer(s, warm)
			return drive(s, sz.workers, sz.hitIters, func(worker, i int) string {
				return warm[(worker*13+i)%len(warm)]
			})
		}},
		{"miss", 0, func(s *api.Server) loadStats {
			return drive(s, sz.workers, sz.missIters, func(worker, i int) string {
				return fmt.Sprintf("profile=1,0.5,0.%03d&pi=0.00%d%04d", i%999+1, worker+1, i)
			})
		}},
		{"mixed", mixedThreshold, func(s *api.Server) loadStats {
			warmServer(s, warm)
			return driveMixed(s, sz.workers, sz.waves, sz.warmPerWave, largeBase, warm)
		}},
		{"large_n", 0, func(s *api.Server) loadStats {
			return drive(s, sz.workers, sz.largeIters, func(worker, i int) string {
				return largeBase // one shared large key: 1 miss, then fast-path hits
			})
		}},
	} {
		base := regime.run(newBaseline())
		tuned := regime.run(newTuned())
		regimes = append(regimes, RegimeResult{
			Name:              regime.name,
			Requests:          tuned.ops,
			BaselineOpsPerSec: base.opsPerSec(),
			TunedOpsPerSec:    tuned.opsPerSec(),
			TunedP50Ms:        tuned.percentileMs(50),
			TunedP99Ms:        tuned.percentileMs(99),
			TunedAllocsPerOp:  tuned.allocsPerOp,
		})
		// Both sides serve the same requests, so baseline/tuned wall time
		// is tuned/baseline throughput; mixed samples it per herd wave.
		num, den := []float64{float64(base.wall)}, []float64{float64(tuned.wall)}
		if base.waveNs != nil {
			num, den = base.waveNs, tuned.waveNs
		}
		cert.Claims = append(cert.Claims, benchcert.NewClaim(regime.name, benchcert.RatioOfSums, benchcert.AtLeast,
			regime.threshold, num, den))
	}

	for _, run := range []func(bool) (RegimeResult, []benchcert.Claim){runManyClients, runFleet, runSweep, runRestart} {
		r, claims := run(quick)
		regimes = append(regimes, r)
		cert.Claims = append(cert.Claims, claims...)
	}
	cert.Report = regimes
	return cert
}

// runManyClients certifies the admission batcher: per sample, the same
// distinct-key sweep traffic is driven against a fresh tuned server without
// coalescing and a fresh one with it, and the wall-time ratio recorded.
// The pairs are GC-leveled and the gate is the 95% CI low end over
// benchcert.MinSamples samples, so one lucky run cannot certify and one
// noisy one cannot mask.
func runManyClients(quick bool) (RegimeResult, []benchcert.Claim) {
	clients, waves, n, samples := 256, 4, 1000, benchcert.MinSamples
	if quick {
		clients, waves, n, samples = 16, 2, 800, 2
	}
	// Per wave a fresh shared fleet profile; per client a distinct tau over
	// it — distinct cache keys by construction, so neither singleflight
	// layer can collapse them. The profile is long enough to engage the raw
	// front (the batcher's raw submission flavor, which shares the decode
	// itself across a flush) but far below the chunked-kernel cutover: each
	// request is a small serial evaluation, the worst case for amortizing
	// per-request overhead anywhere but in the batcher.
	queries := make([][]string, waves)
	for v := range queries {
		base := profileQuery(n, uint64(0xC0A1+v))
		queries[v] = make([]string, clients)
		for c := range queries[v] {
			queries[v][c] = fmt.Sprintf("%s&tau=0.%04d", base, c+101)
		}
	}

	var baseNs, tunedNs []float64
	var sumBase, sumTuned float64
	var lastTuned loadStats
	for k := 0; k < samples; k++ {
		base := driveWaves(api.NewServer(), clients, queries)
		coalSrv := api.NewServer()
		coalSrv.EnableCoalesce(api.CoalesceConfig{})
		tuned := driveWaves(coalSrv, clients, queries)
		coalSrv.CloseCoalesce()
		baseNs = append(baseNs, float64(base.wall))
		tunedNs = append(tunedNs, float64(tuned.wall))
		sumBase += base.opsPerSec()
		sumTuned += tuned.opsPerSec()
		lastTuned = tuned
	}
	r := RegimeResult{
		Name:              "many_clients",
		Requests:          clients * waves,
		BaselineOpsPerSec: sumBase / float64(samples),
		TunedOpsPerSec:    sumTuned / float64(samples),
		TunedP50Ms:        lastTuned.percentileMs(50),
		TunedP99Ms:        lastTuned.percentileMs(99),
		TunedAllocsPerOp:  lastTuned.allocsPerOp,
	}
	return r, []benchcert.Claim{benchcert.NewClaim("many_clients", benchcert.MeanCI95, benchcert.AtLeast,
		manyClientsThreshold, baseNs, tunedNs)}
}

// driveWaves releases all clients together once per wave, one request each,
// with a barrier between waves — every key distinct and cold, arriving as a
// herd the way a sweep dashboard fans out.
func driveWaves(s *api.Server, clients int, queries [][]string) loadStats {
	lats := make([]time.Duration, 0, len(queries)*clients)
	runtime.GC() // level the GC state so paired runs compare fairly
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for v := range queries {
		var wg sync.WaitGroup
		start := make(chan struct{})
		waveLats := make([]time.Duration, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				t1 := time.Now()
				status, _ := s.MeasureQuery(queries[v][c])
				waveLats[c] = time.Since(t1)
				if status != 200 {
					panic(fmt.Sprintf("benchserve: many_clients query %q: status %d", queries[v][c], status))
				}
			}(c)
		}
		close(start)
		wg.Wait()
		lats = append(lats, waveLats...)
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)

	out := loadStats{ops: len(queries) * clients, wall: wall, latencies: lats}
	if out.ops > 0 {
		out.allocsPerOp = math.Round(float64(after.Mallocs-before.Mallocs)/float64(out.ops)*1000) / 1000
	}
	return out
}

// loadStats aggregates one regime run on one server.
type loadStats struct {
	ops         int
	wall        time.Duration
	waveNs      []float64       // per herd wave, when the drive has waves that count as samples
	latencies   []time.Duration // one per request, unsorted
	allocsPerOp float64
}

func (l loadStats) opsPerSec() float64 {
	if l.wall <= 0 {
		return 0
	}
	return float64(l.ops) / l.wall.Seconds()
}

func (l loadStats) percentileMs(p int) float64 {
	if len(l.latencies) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), l.latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := len(sorted) * p / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// drive fans perWorker requests per worker over the server, all workers
// released together, and returns wall time, per-request latencies, and the
// heap-allocation delta per operation.
func drive(s *api.Server, workers, perWorker int, query func(worker, i int) string) loadStats {
	// Pre-build the query strings and latency buffers so the measured
	// section allocates only what the serving path allocates.
	queries := make([][]string, workers)
	lats := make([][]time.Duration, workers)
	for w := 0; w < workers; w++ {
		queries[w] = make([]string, perWorker)
		for i := 0; i < perWorker; i++ {
			queries[w][i] = query(w, i)
		}
		lats[w] = make([]time.Duration, perWorker)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				t0 := time.Now()
				status, _ := s.MeasureQuery(queries[w][i])
				lats[w][i] = time.Since(t0)
				if status != 200 {
					panic(fmt.Sprintf("benchserve: worker %d query %q: status %d", w, queries[w][i], status))
				}
			}
		}(w)
	}
	runtime.GC() // level the GC state so paired runs compare fairly
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	close(start)
	wg.Wait()
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)

	out := loadStats{ops: workers * perWorker, wall: wall}
	for w := range lats {
		out.latencies = append(out.latencies, lats[w]...)
	}
	if out.ops > 0 {
		out.allocsPerOp = math.Round(float64(after.Mallocs-before.Mallocs)/float64(out.ops)*1000) / 1000
	}
	return out
}

// driveMixed runs herd waves: per wave, every worker requests the same
// fresh large-profile key (byte-identical spellings, so the raw-query layer
// can coalesce) plus warmPerWave warm hits. Waves are separated by a
// barrier so each herd arrives together, as a cache-expiry or deploy wave
// does in production.
func driveMixed(s *api.Server, workers, waves, warmPerWave int, largeBase string, warm []string) loadStats {
	perWave := 1 + warmPerWave
	lats := make([][]time.Duration, workers)
	for w := range lats {
		lats[w] = make([]time.Duration, 0, waves*perWave)
	}
	hot := make([]string, waves)
	for v := 0; v < waves; v++ {
		// A distinct tau per wave makes each wave's hot key fresh without
		// rebuilding the (large) profile string.
		hot[v] = largeBase + "&tau=0.00" + strconv.Itoa(101+v)
	}
	runtime.GC() // level the GC state so paired runs compare fairly
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	waveNs := make([]float64, 0, waves)
	for v := 0; v < waves; v++ {
		tv := time.Now()
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				q := hot[v]
				t1 := time.Now()
				status, _ := s.MeasureQuery(q)
				lats[w] = append(lats[w], time.Since(t1))
				if status != 200 {
					panic(fmt.Sprintf("benchserve: mixed hot query: status %d", status))
				}
				for i := 0; i < warmPerWave; i++ {
					wq := warm[(w*7+v*3+i)%len(warm)]
					t2 := time.Now()
					status, _ := s.MeasureQuery(wq)
					lats[w] = append(lats[w], time.Since(t2))
					if status != 200 {
						panic("benchserve: mixed warm query failed")
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		waveNs = append(waveNs, float64(time.Since(tv)))
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)

	out := loadStats{ops: workers * waves * perWave, wall: wall, waveNs: waveNs}
	for w := range lats {
		out.latencies = append(out.latencies, lats[w]...)
	}
	if out.ops > 0 {
		out.allocsPerOp = math.Round(float64(after.Mallocs-before.Mallocs)/float64(out.ops)*1000) / 1000
	}
	return out
}

// warmQueries builds the hit-regime working set: small distinct profiles.
func warmQueries(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("profile=1,0.75,0.5,0.%03d", i+100)
	}
	return out
}

// warmServer primes every warm key so the measured run is pure hits.
func warmServer(s *api.Server, warm []string) {
	for _, q := range warm {
		if status, _ := s.MeasureQuery(q); status != 200 {
			panic("benchserve: warmup failed: " + q)
		}
	}
}

// largeProfileQuery renders an n-computer profile with short (3-decimal)
// spellings — realistic measured utilizations, and a query whose parse cost
// is dominated by element count rather than digit count.
func largeProfileQuery(n int) string { return profileQuery(n, uint64(n)) }

// profileQuery renders an n-computer profile query from an explicit seed so
// regimes can draw distinct profiles of the same size.
func profileQuery(n int, seed uint64) string {
	rng := stats.NewRNG(seed)
	p := profile.RandomNormalized(rng, n)
	var b strings.Builder
	b.Grow(8 + 6*n)
	b.WriteString("profile=")
	for i, rho := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		r := math.Round(rho*1000) / 1000
		if r < 0.001 {
			r = 0.001
		}
		if r > 1 {
			r = 1
		}
		if i == 0 {
			r = 1 // keep the profile normalized after rounding
		}
		b.WriteString(strconv.FormatFloat(r, 'g', -1, 64))
	}
	return b.String()
}
