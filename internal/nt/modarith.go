// Package nt provides the modular number theory underpinning the RNS
// polynomial rings used by the BFV and CKKS homomorphic encryption
// schemes: 64-bit modular arithmetic with Barrett and Shoup reductions,
// modular exponentiation and inversion, Miller-Rabin primality testing,
// generation of NTT-friendly primes, and roots of unity.
//
// All moduli handled by this package are at most 61 bits so that sums of
// two residues never overflow a uint64 and Barrett reduction can use a
// 128-bit numerator.
package nt

import "math/bits"

// MaxModulusBits is the largest supported modulus width. SEAL uses up to
// 60-bit primes; we allow 61 so that the paper's {58,58,59} and
// {60,60,60} residue selections fit comfortably.
const MaxModulusBits = 61

// Modulus holds a modulus value together with precomputed constants for
// Barrett reduction. The zero value is invalid; use NewModulus.
type Modulus struct {
	Value uint64
	// barrettHi/barrettLo hold floor(2^128 / Value) as a 128-bit number.
	barrettHi uint64
	barrettLo uint64
	// bitLen is the bit length of Value.
	bitLen int
}

// NewModulus precomputes Barrett constants for q. It panics if q is 0, 1,
// or wider than MaxModulusBits, since a malformed modulus indicates a
// programming error rather than a runtime condition.
func NewModulus(q uint64) Modulus {
	if q < 2 {
		panic("nt: modulus must be >= 2")
	}
	if bits.Len64(q) > MaxModulusBits {
		panic("nt: modulus too large")
	}
	// Compute floor(2^128 / q) by long division of 2^128 by q.
	hi, rem := bits.Div64(1, 0, q) // floor(2^64 / q), remainder
	lo, _ := bits.Div64(rem, 0, q)
	return Modulus{Value: q, barrettHi: hi, barrettLo: lo, bitLen: bits.Len64(q)}
}

// BitLen returns the bit length of the modulus value.
func (m Modulus) BitLen() int { return m.bitLen }

// BarrettConstants returns floor(2^128 / q) as (hi, lo) 64-bit words.
// Vectorized Barrett kernels replicate ReduceWide's exact quotient
// arithmetic and need the same constants NewModulus precomputed.
func (m Modulus) BarrettConstants() (hi, lo uint64) {
	return m.barrettHi, m.barrettLo
}

// Add returns (a + b) mod q for a, b < q. Branchless compare-mask
// form: a+b-q underflows exactly when a+b < q (both inputs are below
// q < 2^61, so the true sum never reaches the sign bit), and the
// arithmetic right shift of the wrapped difference turns that borrow
// into an all-ones mask selecting the +q correction. No data-dependent
// branch, so residue values can't steer the branch predictor.
func (m Modulus) Add(a, b uint64) uint64 {
	d := a + b - m.Value
	return d + (m.Value & uint64(int64(d)>>63))
}

// Sub returns (a - b) mod q for a, b < q, in the same branchless
// compare-mask form as Add: the borrow of a-b becomes a sign-bit mask
// selecting the +q correction.
func (m Modulus) Sub(a, b uint64) uint64 {
	d := a - b
	return d + (m.Value & uint64(int64(d)>>63))
}

// Neg returns -a mod q for a < q. Branchless: q-a is correct for every
// nonzero a, and the mask zeroes the result when a == 0 (where q-a
// would escape the canonical range).
func (m Modulus) Neg(a uint64) uint64 {
	mask := uint64(0) - ((a | (0 - a)) >> 63)
	return (m.Value - a) & mask
}

// Reduce returns a mod q for arbitrary a. Branchless: one Barrett
// quotient estimate from the precomputed high word of floor(2^128/q)
// leaves a remainder below 4q (the estimate floor(a·bHi/2^64) with
// bHi = floor(2^64/q) undershoots a/q by less than a/2^64 + 1 < 3),
// and two compare-mask subtractions finish the canonicalization —
// replacing the old early-exit branch plus hardware division.
func (m Modulus) Reduce(a uint64) uint64 {
	qhat, _ := bits.Mul64(a, m.barrettHi)
	r := a - qhat*m.Value
	d := r - m.Value<<1
	r = d + (m.Value << 1 & uint64(int64(d)>>63))
	d = r - m.Value
	return d + (m.Value & uint64(int64(d)>>63))
}

// ReduceWide returns (hi·2^64 + lo) mod q using Barrett reduction.
func (m Modulus) ReduceWide(hi, lo uint64) uint64 {
	// Normalize so that x = hi·2^64 + lo < q·2^64, which guarantees the
	// Barrett quotient fits in a single word. The hot path (products of
	// reduced operands) always has hi < q and skips the division.
	if hi >= m.Value {
		hi %= m.Value
	}
	// Let B = bHi·2^64 + bLo = floor(2^128/q); then
	// qhat = floor(x·B / 2^128)
	//      = hi·bHi + floor((hi·bLo + lo·bHi + floor(lo·bLo/2^64)) / 2^64)
	// underestimates floor(x/q) by at most 3, and hi·bHi < 2^64 because
	// hi < q and bHi ≤ 2^64/q.
	h1, l1 := bits.Mul64(hi, m.barrettLo)
	h2, l2 := bits.Mul64(lo, m.barrettHi)
	h3, _ := bits.Mul64(lo, m.barrettLo)
	mid, c1 := bits.Add64(l1, l2, 0)
	_, c2 := bits.Add64(mid, h3, 0)
	_, p := bits.Mul64(hi, m.barrettHi) // product < 2^64: low word exact
	qhat := p + h1 + h2 + c1 + c2
	// True remainder is < 4q < 2^63, so computing it mod 2^64 is exact.
	r := lo - qhat*m.Value
	for r >= m.Value {
		r -= m.Value
	}
	return r
}

// Mul returns (a · b) mod q for a, b < q.
func (m Modulus) Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return m.ReduceWide(hi, lo)
}

// MulAdd returns (a·b + c) mod q for a, b, c < q.
func (m Modulus) MulAdd(a, b, c uint64) uint64 {
	return m.Add(m.Mul(a, b), c)
}

// Pow returns a^e mod q.
func (m Modulus) Pow(a, e uint64) uint64 {
	result := uint64(1)
	base := m.Reduce(a)
	for e > 0 {
		if e&1 == 1 {
			result = m.Mul(result, base)
		}
		base = m.Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a mod q, and false if a is
// not invertible (gcd(a, q) != 1).
func (m Modulus) Inv(a uint64) (uint64, bool) {
	// Extended Euclid on (a, q) with signed accumulators in int128-free
	// form: track coefficients mod q.
	if a == 0 {
		return 0, false
	}
	var (
		r0, r1 = m.Value, m.Reduce(a)
		s0, s1 = uint64(0), uint64(1) // coefficients of a, kept mod q
	)
	for r1 != 0 {
		q := r0 / r1
		r0, r1 = r1, r0-q*r1
		// s0 - q*s1 mod m
		qq := m.Reduce(q)
		s0, s1 = s1, m.Sub(s0, m.Mul(qq, s1))
	}
	if r0 != 1 {
		return 0, false
	}
	return s0, true
}

// ShoupPrecomp returns the Shoup precomputation floor(w·2^64/q) used by
// MulShoup for fast multiplication by the fixed operand w < q. The
// Barrett constants give the quotient estimate floor(w·floor(2^128/q) /
// 2^64), which undershoots by at most 1 (w·bHi < 2^64 because w < q and
// bHi ≤ 2^64/q), and the remainder w·2^64 − estimate·q < 2q, exact mod
// 2^64, corrects it: two multiplies where a 128-by-64 division took
// several times as long, for every companion a kernel, key or transform
// table precomputes.
func (m Modulus) ShoupPrecomp(w uint64) uint64 {
	h, _ := bits.Mul64(w, m.barrettLo)
	est := w*m.barrettHi + h
	if -(est * m.Value) >= m.Value {
		est++
	}
	return est
}

// MulShoup returns (a · w) mod q where wShoup = ShoupPrecomp(w). This is
// the NTT hot-loop multiplication: one full multiply, one half multiply,
// one conditional subtraction.
func (m Modulus) MulShoup(a, w, wShoup uint64) uint64 {
	qhat, _ := bits.Mul64(a, wShoup)
	r := a*w - qhat*m.Value
	if r >= m.Value {
		r -= m.Value
	}
	return r
}

// MulShoupLazy is MulShoup without the final conditional subtraction:
// the result is congruent to a·w mod q and lies in [0, 2q). The input
// a may be any value below 2^62 (not just a reduced residue) — the
// quotient estimate is off by at most one regardless, so lazily
// accumulated butterfly operands stay exact. Hot inverse-NTT loops use
// this to defer reduction to the transform's final stage.
func (m Modulus) MulShoupLazy(a, w, wShoup uint64) uint64 {
	qhat, _ := bits.Mul64(a, wShoup)
	return a*w - qhat*m.Value
}
