package spill

// CRC-32 (IEEE) combination, after zlib's crc32_combine: given the CRCs of
// two byte strings A and B and the length of B, crc32Combine returns the
// CRC of A ++ B without reading either string again. The pre-verify of a
// large record CRCs its parts concurrently and folds them in order with it.
//
// Appending len(B) zero bytes to A multiplies A's (unconditioned) remainder
// by x^(8·len(B)) modulo the CRC polynomial; the pre- and post-conditioning
// cancel out of the sum, so crc(A ++ B) = crc(A)·x^(8·len(B)) ⊕ crc(B).
// Polynomials are bit-reflected, as in the IEEE table: bit 31 is x^0.

const crcPolyIEEE = 0xedb88320

// crcX2n holds x^(2^n) modulo the polynomial, n = 0..31.
var crcX2n = func() (t [32]uint32) {
	p := uint32(1) << 30 // x^1
	t[0] = p
	for n := 1; n < len(t); n++ {
		p = crcMulMod(p, p)
		t[n] = p
	}
	return t
}()

// crcMulMod returns a·b modulo the polynomial. a must be non-zero.
func crcMulMod(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; ; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				return p
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ crcPolyIEEE
		} else {
			b >>= 1
		}
	}
}

// crcX8n returns x^(8·n) modulo the polynomial: the factor that shifts a
// remainder past n bytes.
func crcX8n(n int64) uint32 {
	p := uint32(1) << 31 // x^0
	for k := 3; n != 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = crcMulMod(crcX2n[k&31], p)
		}
	}
	return p
}

// crc32Combine returns the IEEE CRC-32 of A ++ B from crcA = crc(A),
// crcB = crc(B) and lenB = len(B).
func crc32Combine(crcA, crcB uint32, lenB int64) uint32 {
	return crcMulMod(crcX8n(lenB), crcA) ^ crcB
}
