package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// sizes fixes the input sizes of every workload and the heterod memory
// budget they are sized against. fullSize is the benchmark; tinySize keeps
// the same shapes small enough for the self-check tests.
type sizes struct {
	// Memory budget: -cache-size and -cache-bytes. measure_hot's working set
	// fits it; measure_miss's and batch_sweep's do not.
	cacheEntries int
	cacheBytes   int64
	// extraHeterodArgs are appended to the heterod command line.
	extraHeterodArgs []string

	setups int // set-ups per run; setup_s is their median

	hotProfiles int // distinct profiles in measure_hot's working set
	hotMinN     int
	hotMaxN     int
	hotSeqLen   int // length of the Zipf-drawn request sequence (cycled)
	hotPass     int // ops per measure_hot pass

	missPool  int // profiles warmed to spill and revisited
	missBases int // base profiles fresh ops derive from
	missMinN  int
	missMaxN  int

	// batch_sweep: one sweep body per entry of batchKs, each holding
	// batchUnits ρ-values split evenly over that many profiles. At full
	// size every profile's /v1/measure cache entry is over a cache shard's
	// byte budget, so the measure caches stay idle on this workload.
	batchUnits int
	batchKs    []int

	// Traced run.
	traceReps int
}

var fullSize = sizes{
	cacheEntries: 192,
	cacheBytes:   16 << 20,
	setups:       5,
	hotProfiles:  64, hotMinN: 8, hotMaxN: 1024, hotSeqLen: 1 << 14, hotPass: 1024,
	missPool: 1024, missBases: 64, missMinN: 16, missMaxN: 16384,
	batchUnits: 1 << 20, batchKs: []int{2, 4, 8, 16},
	traceReps: 5,
}

var tinySize = sizes{
	cacheEntries: 32,
	cacheBytes:   4 << 20,
	setups:       1,
	hotProfiles:  8, hotMinN: 8, hotMaxN: 1024, hotSeqLen: 512, hotPass: 64,
	missPool: 128, missBases: 8, missMinN: 16, missMaxN: 4096,
	// Bodies must cross the stream threshold; tiny bodies need a lower one.
	extraHeterodArgs: []string{"-stream-batch-threshold", "16384"},
	batchUnits:       1 << 14, batchKs: []int{4, 16},
	traceReps: 1,
}

// rhoToken spells a ρ-value with at most six decimals: k/10⁶ for k in
// [1000, 10⁶], shortest form ("0.437512", "1").
func rhoToken(r *rand.Rand) string {
	k := 1000 + r.Intn(1_000_000-1000+1)
	return strconv.FormatFloat(float64(k)/1e6, 'f', -1, 64)
}

// respell writes the same float64 in exponent form ("4.37512e-01"), so the
// raw query differs while the canonical key does not. A "+" would read as a
// space in a query, so ρ = 1 is written "1e00".
func respell(tok string) string {
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		panic(err) // tokens come from rhoToken
	}
	return strings.Replace(strconv.FormatFloat(v, 'e', -1, 64), "e+", "e", 1)
}

// profileTokens draws n ρ tokens.
func profileTokens(r *rand.Rand, n int) []string {
	toks := make([]string, n)
	for i := range toks {
		toks[i] = rhoToken(r)
	}
	return toks
}

// stratifiedLogSizes returns count sizes log-uniform on [lo, hi], one per
// stratum, in ascending order: every seed covers the whole range evenly, so
// the workload's cost varies little from seed to seed.
func stratifiedLogSizes(r *rand.Rand, count, lo, hi int) []int {
	out := make([]int, count)
	span := math.Log(float64(hi) / float64(lo))
	for i := range out {
		u := (float64(i) + r.Float64()) / float64(count)
		out[i] = int(math.Round(float64(lo) * math.Exp(u*span)))
	}
	return out
}

// shuffledLogSizes is stratifiedLogSizes in random order.
func shuffledLogSizes(r *rand.Rand, count, lo, hi int) []int {
	out := stratifiedLogSizes(r, count, lo, hi)
	r.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// measureQuery is the raw query of GET /v1/measure for a profile.
func measureQuery(toks []string) string {
	return "profile=" + strings.Join(toks, ",")
}

// getRequest is the wire form of GET /v1/measure?<query>.
func getRequest(query string) []byte { return appendGetRequest(nil, query) }

// appendGetRequest appends the wire form of GET /v1/measure?<parts...>.
func appendGetRequest(dst []byte, parts ...string) []byte {
	dst = append(dst, "GET /v1/measure?"...)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return append(dst, " HTTP/1.1\r\nHost: perfbench\r\n\r\n"...)
}

// postHeader is the request line and headers of POST /v1/batch for a body
// of n bytes.
func postHeader(n int) string {
	return fmt.Sprintf("POST /v1/batch HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", n)
}

// zipfSequence draws length item indices in [0, items) with Zipf(s=1.1)
// popularity. Which item has which rank is fixed, not drawn from r, so the
// popularity of each size stratum is the same for every seed.
func zipfSequence(r *rand.Rand, items, length int) []int32 {
	rank := rand.New(rand.NewSource(1)).Perm(items)
	z := rand.NewZipf(r, 1.1, 1, uint64(items-1))
	seq := make([]int32, length)
	for i := range seq {
		seq[i] = int32(rank[z.Uint64()])
	}
	return seq
}
