package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// On a shared VM the hypervisor takes CPU time away from the guest (steal
// time), in episodes that come and go over tens of seconds. The benchmark
// samples the host's steal share while it measures and computes its time
// metrics over the passes (and set-ups) that ran while steal stayed low.
// Steal is a property of the host, not of the program: a stall the program
// causes itself steals nothing and stays in the metrics.

// maxQuietSteal is the largest share of host CPU time the hypervisor may
// steal during a pass or set-up for it to count as quiet.
const maxQuietSteal = 0.05

// cpuTicks is the host-wide CPU time from /proc/stat, in USER_HZ ticks:
// all of it (user through steal), and the part the hypervisor stole.
type cpuTicks struct{ total, steal uint64 }

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i := 1; i <= 8; i++ { // user nice system idle iowait irq softirq steal
		v, _ := strconv.ParseUint(f[i], 10, 64)
		t.total += v
	}
	t.steal, _ = strconv.ParseUint(f[8], 10, 64)
	return t
}

// stealShare is the share of host CPU time stolen between a and b.
func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// stealSampler reads the host's CPU ticks every 10 ms while a phase runs.
type stealSampler struct {
	t0    time.Time
	at    []time.Duration // since t0
	ticks []cpuTicks
	stop  chan struct{}
	done  chan struct{}
}

func startStealSampler(t0 time.Time) *stealSampler {
	s := &stealSampler{t0: t0, stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.sample()
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *stealSampler) sample() {
	s.ticks = append(s.ticks, readCPUTicks())
	s.at = append(s.at, time.Since(s.t0))
}

// finish stops the sampler and waits for it; its samples are then safe to
// read.
func (s *stealSampler) finish() {
	close(s.stop)
	<-s.done
}

// share is the steal share over [from, to], from the last sample at or
// before from to the first at or after to.
func (s *stealSampler) share(from, to time.Duration) float64 {
	i := sort.Search(len(s.at), func(k int) bool { return s.at[k] > from }) - 1
	j := sort.Search(len(s.at), func(k int) bool { return s.at[k] >= to })
	i, j = max(i, 0), min(j, len(s.at)-1)
	if j <= i {
		return 0
	}
	return stealShare(s.ticks[i], s.ticks[j])
}

// quietest returns, in order, the indices of the items whose steal share is
// at most maxQuietSteal, or at most that of the quietest tenth of them when
// fewer than a tenth are that quiet. The set grows and shrinks with the
// steal a run saw; it never switches to every item at once. In a long
// episode even the quietest tenth of a run's passes is stolen from, but
// still far less than the rest.
func quietest(shares []float64) []int {
	if len(shares) == 0 {
		return nil
	}
	sorted := append([]float64(nil), shares...)
	sort.Float64s(sorted)
	limit := max(maxQuietSteal, sorted[(len(sorted)-1)/10])
	var idx []int
	for i, s := range shares {
		if s <= limit {
			idx = append(idx, i)
		}
	}
	return idx
}

// pick returns the items of xs at the indices idx.
func pick[T any](xs []T, idx []int) []T {
	out := make([]T, 0, len(idx))
	for _, i := range idx {
		out = append(out, xs[i])
	}
	return out
}
