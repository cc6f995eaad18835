package benchcert

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// tTable95 holds the two-sided 95% Student-t critical values for 1–30
// degrees of freedom.
var tTable95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tValue95 is the two-sided 95% Student-t critical value for df degrees of
// freedom. Beyond df 30 it keeps the df-30 value, which is larger than the
// true one: the interval is then slightly wider than exact, never narrower.
func tValue95(df int) float64 {
	if df < 1 {
		df = 1
	}
	if df > len(tTable95) {
		df = len(tTable95)
	}
	return tTable95[df-1]
}

// meanCI95 returns the mean of xs and the low end of its two-sided 95%
// Student-t confidence interval (sample standard deviation). With one
// sample the interval collapses to the point.
func meanCI95(xs []float64) (mean, lo float64) {
	n := len(xs)
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	if n < 2 {
		return mean, mean
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(ss / float64(n-1))
	return mean, mean - tValue95(n-1)*sd/math.Sqrt(float64(n))
}

// PeakHeap runs fn while sampling runtime.MemStats.HeapAlloc every 200 µs
// and returns the peak growth over the post-GC baseline taken just before
// fn.
func PeakHeap(fn func()) uint64 {
	runtime.GC()
	runtime.GC() // settle finalizer-freed memory so the baseline is stable
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc

	var peak uint64 // written by the sampler only; read after done
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var s runtime.MemStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			runtime.ReadMemStats(&s)
			peak = max(peak, s.HeapAlloc)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	fn()
	close(stop)
	<-done
	if peak > baseline {
		return peak - baseline
	}
	return 0
}

// NsPerOp returns f's cost per iteration. A certified run defers to
// testing.Benchmark, which calibrates the iteration count itself; a quick
// run times three iterations directly, since pinning b.N against the
// harness's calibration loop never terminates.
func NsPerOp(quick bool, f func(b *testing.B)) float64 {
	if quick {
		var b testing.B
		b.N = 3
		start := time.Now()
		f(&b)
		return float64(time.Since(start).Nanoseconds()) / float64(b.N)
	}
	r := testing.Benchmark(f)
	return float64(r.T.Nanoseconds()) / float64(r.N)
}
