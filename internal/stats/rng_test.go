package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d != %d", i, av, bv)
		}
	}
}

// TestRNGStreamPinned pins the first draws of each sampler, from a fresh
// generator per sampler, to literal values: every seeded experiment in the
// reproduction depends on this exact stream, so any change to Seed, Uint64
// or the samplers built on it must fail here.
func TestRNGStreamPinned(t *testing.T) {
	cases := []struct {
		seed  uint64
		u64   []uint64
		f64   []float64
		intn7 []int
		norm  []float64
	}{
		{
			seed:  0,
			u64:   []uint64{0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c},
			f64:   []float64{0.6012629994179048, 0.7477740925472398, 0.10301998939503632, 0.4165890778296456},
			intn7: []int{4, 5, 0, 2, 5, 6, 2, 3},
			norm:  []float64{0.5981026483626094, -0.8950525532379916, -2.415606685712082, -0.7626406521838989},
		},
		{
			seed:  42,
			u64:   []uint64{0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1},
			f64:   []float64{0.08386297105988216, 0.3789802506626686, 0.6800434110281394, 0.9246929453253876},
			intn7: []int{0, 2, 4, 6, 6, 5, 5, 5},
			norm:  []float64{-0.7262191382447857, 0.2216227015035933, 0.46417731016247366, 1.476249461018415},
		},
		{
			seed:  20100419,
			u64:   []uint64{0x4607206555e77c79, 0xd7d2247dd2db1c28, 0xe85c7bb22d1ccf8f, 0x63da0a7c50edb8fa},
			f64:   []float64{0.2735462424660947, 0.8430502707659396, 0.9076611814499415, 0.3900457910066767},
			intn7: []int{1, 5, 6, 2, 6, 3, 6, 3},
			norm:  []float64{-0.48765458736308365, 0.7939642264521004, 0.870696090380372, 0.4821847777584119},
		},
	}
	for _, tc := range cases {
		r := NewRNG(tc.seed)
		for i, want := range tc.u64 {
			if got := r.Uint64(); got != want {
				t.Errorf("seed %d: Uint64 draw %d = %#016x, want %#016x", tc.seed, i, got, want)
			}
		}
		r = NewRNG(tc.seed)
		for i, want := range tc.f64 {
			if got := r.Float64(); got != want {
				t.Errorf("seed %d: Float64 draw %d = %v, want %v", tc.seed, i, got, want)
			}
		}
		r = NewRNG(tc.seed)
		for i, want := range tc.intn7 {
			if got := r.Intn(7); got != want {
				t.Errorf("seed %d: Intn(7) draw %d = %d, want %d", tc.seed, i, got, want)
			}
		}
		r = NewRNG(tc.seed)
		for i, want := range tc.norm {
			if got := r.Norm(); got != want {
				t.Errorf("seed %d: Norm draw %d = %v, want %v", tc.seed, i, got, want)
			}
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestRNGSeedZeroWellMixed(t *testing.T) {
	r := NewRNG(0)
	zeros := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 0 {
		t.Fatalf("seed 0 produced %d zero outputs in 100 draws", zeros)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64OpenExcludesZero(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if f := r.Float64Open(); f <= 0 || f >= 1 {
			t.Fatalf("Float64Open out of (0,1): %v", f)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := NewRNG(123)
	const n = 200000
	var sum KahanSum
	for i := 0; i < n; i++ {
		sum.Add(r.Float64())
	}
	mean := sum.Sum() / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(9)
	seen := make(map[int]int)
	for i := 0; i < 60000; i++ {
		v := r.Intn(6)
		if v < 0 || v >= 6 {
			t.Fatalf("Intn(6) = %d out of range", v)
		}
		seen[v]++
	}
	for v := 0; v < 6; v++ {
		if seen[v] < 8000 || seen[v] > 12000 {
			t.Fatalf("Intn(6) value %d appeared %d times out of 60000, badly non-uniform", v, seen[v])
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestMul64MatchesBigMultiplication(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Verify via 32-bit schoolbook multiplication.
		al, ah := a&0xffffffff, a>>32
		bl, bh := b&0xffffffff, b>>32
		t0 := al * bl
		t1 := ah*bl + t0>>32
		t2 := al*bh + t1&0xffffffff
		wantLo := t0&0xffffffff | t2<<32
		wantHi := ah*bh + t1>>32 + t2>>32
		return hi == wantHi && lo == wantLo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(31)
	const n = 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm()
	}
	d := DescribeSample(xs)
	if math.Abs(d.Mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ~0", d.Mean)
	}
	if math.Abs(d.Variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ~1", d.Variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	for n := 0; n < 20; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := NewRNG(11)
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	want := Sum(xs)
	r.Shuffle(xs)
	if got := Sum(xs); got != want {
		t.Fatalf("Shuffle changed sum: %v != %v", got, want)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(77)
	child := r.Split()
	if r.Uint64() == child.Uint64() {
		t.Fatal("Split stream immediately collided with parent")
	}
}
