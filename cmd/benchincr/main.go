// Command benchincr certifies the perf claims of the incremental evaluator
// and the batched/cached serving path. It times, over a fixed iteration
// count per sample (each sample runs tens to hundreds of milliseconds):
//
//   - the O(n²) brute-force speedup search vs the O(n) incremental search
//     at n ∈ {256, 4096} (acceptance: ≥2× at n = 256, ≥10× at n = 4096), and
//   - /v1/measure throughput with the response cache warm vs disabled.
//
// Each speedup-search claim is the ratio of summed brute and incremental
// ns/op over five paired samples; /v1/measure serving is report-only. It
// prints one certificate (internal/benchcert) to stdout — the content of
// BENCH_incr.json (see `make bench`) — and exits non-zero if the
// certificate fails benchcert.Check:
//
//	go run ./cmd/benchincr > BENCH_incr.json
//
// The -quick flag takes one sample of three iterations per measurement so
// CI smoke tests finish in about a second; its output is not a
// certificate.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"hetero/internal/api"
	"hetero/internal/benchcert"
	"hetero/internal/core"
	"hetero/internal/model"
	"hetero/internal/profile"
	"hetero/internal/stats"
)

func main() {
	quick := flag.Bool("quick", false, "single short iteration per benchmark (smoke test; not a certificate)")
	flag.Parse()
	cert, err := buildCert(*quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchincr:", err)
		os.Exit(1)
	}
	benchcert.Emit("benchincr", cert, *quick)
}

func buildCert(quick bool) (*benchcert.Cert, error) {
	cert := &benchcert.Cert{Host: benchcert.ThisHost()}
	samples := benchcert.MinSamples
	if quick {
		samples = 1
	}
	// nsPerOp times iters iterations of f, or three in a quick run.
	nsPerOp := func(iters int, f func(b *testing.B)) float64 {
		if quick {
			iters = 3
		}
		return benchcert.NsPerIters(iters, f)
	}
	m := model.Figs34()
	// The n=4096 floor certifies the headline O(n²)→O(n) claim; n=256 shows
	// the win is not an asymptotic artifact. Each sample pairs one brute
	// and one incremental ns/op; the claim is their ratio of sums. The
	// iteration counts hold each sample to 30–100 ms on a 2-vCPU host,
	// except one brute search at n=4096, which alone takes ~350 ms.
	for _, tc := range []struct {
		n                     int
		threshold             float64
		bruteIters, incrIters int
	}{
		{256, 2, 20, 3000},
		{4096, 10, 1, 300},
	} {
		p := profile.RandomNormalized(stats.NewRNG(uint64(tc.n)), tc.n)
		if _, err := core.BestMultiplicative(m, p, 0.5); err != nil {
			return nil, err
		}
		var brute, incremental []float64
		for k := 0; k < samples; k++ {
			brute = append(brute, nsPerOp(tc.bruteIters, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.BestMultiplicativeBruteForce(m, p, 0.5); err != nil {
						b.Fatal(err)
					}
				}
			}))
			incremental = append(incremental, nsPerOp(tc.incrIters, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.BestMultiplicative(m, p, 0.5); err != nil {
						b.Fatal(err)
					}
				}
			}))
		}
		cert.Claims = append(cert.Claims, benchcert.NewClaim(fmt.Sprintf("speedup_search.n%d", tc.n),
			benchcert.RatioOfSums, benchcert.AtLeast, tc.threshold, brute, incremental))
	}

	req := httptest.NewRequest("GET", "/v1/measure?profile=1,0.5,0.25,0.125", nil)
	uncachedHandler := api.NewServerCacheSize(0).Handler()
	cachedHandler := api.NewServer().Handler()
	// Warm the cache so the cached series measures pure hits.
	{
		rec := httptest.NewRecorder()
		cachedHandler.ServeHTTP(rec, req)
		if rec.Code != 200 {
			return nil, fmt.Errorf("cache warmup status %d", rec.Code)
		}
	}
	serve := func(h http.Handler) float64 {
		return nsPerOp(10000, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != 200 {
					b.Fatalf("status %d", rec.Code)
				}
			}
		})
	}
	cert.Claims = append(cert.Claims, benchcert.NewClaim("measure_serving", benchcert.RatioOfSums, benchcert.AtLeast, 0,
		[]float64{serve(uncachedHandler)}, []float64{serve(cachedHandler)}))
	return cert, nil
}
