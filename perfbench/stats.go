package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation between
// closest ranks; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// quantileOf returns the q-quantile of unsorted xs.
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

func sortRecords(rs []opRecord) {
	sort.Slice(rs, func(a, b int) bool { return rs[a].i < rs[b].i })
}

// latenciesMs returns the sorted latencies of the successful records, in ms.
func latenciesMs(rs []opRecord) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if r.ok() {
			out = append(out, float64(r.end-r.start)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// passSpan is one pass: a fixed run of consecutive ops, from the end of the
// previous pass (or the phase start) to its last completion. A `hetero all`
// pass is one op.
type passSpan struct {
	start, end time.Duration
	recs       []opRecord
}

// passSpans splits the ops, in index order, into complete passes. With no
// complete pass the whole phase counts as one.
func passSpans(rs []opRecord, passLen int, elapsed time.Duration) []passSpan {
	var out []passSpan
	var prevEnd time.Duration
	for k := 0; (k+1)*passLen <= len(rs); k++ {
		p := passSpan{start: prevEnd, recs: rs[k*passLen : (k+1)*passLen]}
		for _, r := range p.recs {
			p.end = max(p.end, r.end)
		}
		out = append(out, p)
		prevEnd = p.end
	}
	if len(out) == 0 {
		out = append(out, passSpan{end: elapsed, recs: rs})
	}
	return out
}

// timeMetrics are the time metrics of a run, over its passes.
type timeMetrics struct {
	passS, opsPerS, p50, p99 float64
	latencySamples           int
}

// passTimeMetrics pools the passes: pass_s is their median duration,
// throughput their successful ops over their summed duration, and p50 and
// p99 are taken over all their successful ops. A stall in one pass of three
// thus moves throughput and p99 in proportion to how often it happens.
func passTimeMetrics(spans []passSpan) timeMetrics {
	var secs []float64
	var total float64
	var recs []opRecord
	for _, p := range spans {
		d := (p.end - p.start).Seconds()
		secs = append(secs, d)
		total += d
		recs = append(recs, p.recs...)
	}
	lat := latenciesMs(recs)
	m := timeMetrics{passS: median(secs), p50: quantile(lat, 0.5), p99: quantile(lat, 0.99), latencySamples: len(lat)}
	if total > 0 {
		m.opsPerS = float64(len(lat)) / total
	}
	return m
}

// unfilteredMeta is what the time metrics would read without the quiet
// filter, over every pass and set-up. The metadata carries it so that the
// filter's effect can be checked.
func unfilteredMeta(tm timeMetrics, setups []float64) map[string]float64 {
	return map[string]float64{
		"setup_s": median(setups), "throughput_ops_s": tm.opsPerS,
		"p50_ms": tm.p50, "p99_ms": tm.p99, "pass_s": tm.passS,
	}
}
