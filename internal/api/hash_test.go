package api

import (
	"testing"

	"hetero/internal/stats"
)

// TestHashKeyHashStringAgree pins the invariant shard selection and fleet
// ownership depend on: hashKey's []byte and string instantiations must
// produce the same hash for equal content — a peer put arrives as bytes for
// a key its sender hashed as a string — on both sides of the sampling
// cutoff and at the stride boundary lengths.
func TestHashKeyHashStringAgree(t *testing.T) {
	rng := stats.NewRNG(7)
	sizes := []int{0, 1, 31, hashSampleCutoff - 1, hashSampleCutoff,
		hashSampleCutoff + 1, hashSampleCutoff + hashSampleProbes,
		4096, 100_000}
	for _, n := range sizes {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint64())
		}
		if got, want := hashKey(b), hashKey(string(b)); got != want {
			t.Fatalf("len %d: hashKey([]byte) = %#x, hashKey(string) = %#x", n, got, want)
		}
	}
}

// TestHashSampledSpreadsParameterVariants checks the sample keeps the herd
// shapes sharded: long keys differing only in their head (canonical
// parameter prefix) or tail (sweep query suffix) must not collapse onto one
// hash value.
func TestHashSampledSpreadsParameterVariants(t *testing.T) {
	base := make([]byte, 50_000)
	for i := range base {
		base[i] = byte('a' + i%16)
	}
	seen := map[uint64]bool{}
	for v := 0; v < 64; v++ {
		head := append([]byte(nil), base...)
		head[5] = byte(v)
		seen[hashKey(head)] = true
	}
	if len(seen) < 32 {
		t.Fatalf("head variants produced only %d distinct hashes", len(seen))
	}
	seen = map[uint64]bool{}
	for v := 0; v < 64; v++ {
		tail := append([]byte(nil), base...)
		tail[len(tail)-5] = byte(v)
		seen[hashKey(tail)] = true
	}
	if len(seen) < 32 {
		t.Fatalf("tail variants produced only %d distinct hashes", len(seen))
	}
}
