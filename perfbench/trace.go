package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call. Parent is the index of the span that caused it
// (-1 for a root); spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory. With on false it records nothing, which is
// how the untraced replay for trace.overhead_frac runs. It is used from one
// goroutine.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{on: true, t0: time.Now()} }

// newOp returns a fresh operation id.
func (t *tracer) newOp() int {
	t.ops++
	return t.ops
}

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// call runs f inside a span.
func (t *tracer) call(name string, parent, op int, f func()) int {
	i := t.begin(name, parent, op)
	f()
	t.end(i)
	return i
}

// selfTimes returns every span's self time in ns: its duration minus the
// union of its child spans' intervals. A child normally nests inside its
// parent. A child replayed beside its parent (the same call on the same
// inputs, run right after it, because the call happens inside the program
// where the benchmark records no spans) is subtracted in full, as the
// estimate of the time that call took inside the parent.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	children := make([][][2]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for p, ivs := range children {
		if len(ivs) == 0 {
			continue
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		cur := ivs[0]
		for _, iv := range ivs[1:] {
			if iv[0] <= cur[1] {
				cur[1] = max(cur[1], iv[1])
				continue
			}
			self[p] -= cur[1] - cur[0]
			cur = iv
		}
		self[p] -= cur[1] - cur[0]
	}
	return self
}

// durations returns the durations in ns of the spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfDurations returns the self times in ns of the spans named name.
func (t *tracer) selfDurations(name string) []float64 {
	self := selfTimes(t.spans)
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(self[i]))
		}
	}
	return out
}

// write saves the spans as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, f.Close()
}
