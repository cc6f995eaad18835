package stats

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** seeded via splitmix64). It is intentionally independent of
// math/rand so that experiment outputs are stable across Go releases: the
// paper's §4.3 study reports percentages over random trials, and we want the
// regenerated numbers to be reproducible from the seed recorded in
// EXPERIMENTS.md.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state as if freshly created with NewRNG(seed).
func (r *RNG) Seed(seed uint64) {
	// splitmix64 expansion of the seed, per Vigna's recommendation, so that
	// even seed=0 yields a well-mixed state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Uint64 returns the next 64 uniformly distributed bits.
//
// The state is loaded into locals and stored back once, with the reference
// step (t = s1<<17; s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t;
// s3 = rotl(s3, 45)) folded into the store. That keeps Uint64 and Float64
// within the compiler's inlining budget (make lint checks it), so the
// Monte-Carlo loops pay no call per draw.
func (r *RNG) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return result
}

// Float64 returns a uniform float64 in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in the open interval (0,1).
func (r *RNG) Float64Open() float64 {
	for {
		f := r.Float64()
		if f > 0 {
			return f
		}
	}
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) { return bits.Mul64(a, b) }

// InRange returns a uniform float64 in [lo, hi).
func (r *RNG) InRange(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a standard normal variate (Box–Muller, polar form).
func (r *RNG) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a random permutation of [0,n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes xs in place.
func (r *RNG) Shuffle(xs []float64) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Split returns a new generator whose stream is independent of r's future
// output, for fan-out across parallel experiment shards.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}
