// Package sampling provides the random polynomial samplers required by
// RLWE encryption: uniform residues, ternary secrets, and the error
// distribution, a discrete Gaussian of parameter σ truncated at ⌈6σ⌉
// and drawn from a cumulative distribution table in constant time. All
// randomness derives from the BLAKE3 XOF (the same PRNG the CHOCO-TACO
// hardware implements), so keygen and encryption are deterministic
// given a seed — which keeps every test, table, and figure in this
// repository reproducible.
//
// Draws are block-batched: the Source keeps a word buffer refilled
// through the XOF's bulk FillUint64 path (whole 64-byte compress blocks
// at a time), so the samplers' hot loops run over a flat []uint64
// instead of paying a squeeze call per 8 bytes. The buffer is purely a
// prefetch: the logical word sequence the samplers consume is identical
// to drawing one Uint64 at a time, so every seeded ciphertext, key, and
// golden wire test is unaffected.
package sampling

import (
	"math"
	"math/big"
	"math/bits"
	"sync"

	"choco/internal/blake3"
)

// DefaultSigma is the standard deviation of the error distribution used
// throughout (SEAL's default is 3.2).
const DefaultSigma = 3.2

// sourceBufWords is the prefetch size: 256 words = 2 KiB = 32 BLAKE3
// output blocks per refill — two passes of the 16-wide vector squeeze
// or four of the 8-wide one — enough to amortize the bulk-path entry
// cost while keeping a Source's buffer a small, cache-resident
// constant. The XOF stream is position-addressed, so the refill
// granularity never changes the sampled values.
const sourceBufWords = 256

// Source is a deterministic randomness source for polynomial sampling.
// It is not safe for concurrent use; give each goroutine its own
// label-separated Source.
type Source struct {
	xof *blake3.XOF
	buf [sourceBufWords]uint64
	pos int // words of buf already consumed (len(buf) = empty)
}

// NewSource derives a Source from a seed and a domain-separation label.
// Distinct labels over the same seed give independent streams (e.g. one
// for the secret key, one per encryption).
func NewSource(seed [32]byte, label string) *Source {
	s := &Source{xof: new(blake3.XOF)}
	s.Reset(seed, label)
	return s
}

// Reset re-derives s in place: afterwards it yields the stream
// NewSource(seed, label) would, without allocating.
func (s *Source) Reset(seed [32]byte, label string) {
	s.xof.Reset(seed, []byte(label))
	s.pos = sourceBufWords
}

// refill replenishes the prefetch buffer through the XOF bulk path.
func (s *Source) refill() {
	s.xof.FillUint64(s.buf[:])
	s.pos = 0
}

// Uint64 returns the next raw 64 bits.
func (s *Source) Uint64() uint64 {
	if s.pos == sourceBufWords {
		s.refill()
	}
	v := s.buf[s.pos]
	s.pos++
	return v
}

// UniformMod fills out with independent uniform values in [0, q) using
// rejection sampling to avoid modulo bias. Trials consume buffered
// words in stream order, so the output matches the unbuffered
// one-word-per-trial reference draw for draw.
func (s *Source) UniformMod(out []uint64, q uint64) {
	// Rejection threshold: largest multiple of q that fits in 64 bits.
	m := math.MaxUint64 / q
	bound := q * m
	i := 0
	for i < len(out) {
		if s.pos == sourceBufWords {
			s.refill()
		}
		for _, v := range s.buf[s.pos:] {
			s.pos++
			if v < bound {
				out[i] = barrettRem(v, q, m)
				i++
				if i == len(out) {
					return
				}
			}
		}
	}
}

// barrettRem returns v mod q given m = ⌊(2⁶⁴−1)/q⌋, without a division:
// ⌊v·m/2⁶⁴⌋ is ⌊v/q⌋ or one below it, so one multiply-high and one
// conditional subtract are exact for every q ≥ 1 and every v.
func barrettRem(v, q, m uint64) uint64 {
	hi, _ := bits.Mul64(v, m)
	r := v - hi*q
	if r >= q {
		r -= q
	}
	return r
}

// Ternary fills out with values drawn uniformly from {-1, 0, 1},
// represented mod q (so -1 becomes q-1). This is the distribution of
// RLWE secrets and of the encryption randomness u.
func (s *Source) Ternary(out []uint64, q uint64) { ternary(s, out, q-1) }

// TernarySigned fills out with values in {-1, 0, 1} as signed integers,
// drawn as Ternary draws them.
func (s *Source) TernarySigned(out []int64) { ternary(s, out, -1) }

// ternary is Ternary with −1 written as minusOne. Each trial takes the
// next 2 random bits and the pair 0b11 is rejected, so the three
// remaining outcomes are equiprobable. Leftover bits are discarded at the
// end of the call, so the word consumption count is shape-determined.
// No branch reads a draw: every trial writes its value, 1 for 0b01 and
// minusOne for 0b10, at the output index, and the index advances by
// (v ≠ 3), so a rejected draw is overwritten by the next. The loop's own
// count of trials is the only thing a draw moves.
func ternary[T uint64 | int64](s *Source, out []T, minusOne T) {
	var buf uint64
	var bitsLeft int
	for i := 0; i < len(out); {
		if bitsLeft < 2 {
			buf = s.Uint64()
			bitsLeft = 64
		}
		v := buf & 3
		buf >>= 2
		bitsLeft -= 2
		out[i] = T(v&1) + minusOne*T(v>>1&1)
		i += int(1 - (v+1)>>2) // v + 1 reaches 4 only for the rejected 0b11
	}
}

// GaussianSigned fills out with integers from the discrete Gaussian
// of parameter sigma, P(x) ∝ exp(−x²/2σ²), on |x| ≤ ⌈6σ⌉ (SEAL's
// truncation). Each coefficient consumes exactly one stream word: its
// top 63 bits are compared against every threshold of the folded
// table of |x| (cdtTable) and its low bit is the sign. The loop has no
// floating point, no rejection and no branch on the word, so its time
// does not depend on the error it draws. On an AVX2 host with the
// vector kernels on, four coefficients a register go through the same
// comparisons (cdt_amd64.s); cdtSample, the scalar loop, takes the rest
// and is the kernel's oracle.
func (s *Source) GaussianSigned(out []int64, sigma float64) {
	t := cdtFor(sigma)
	for len(out) > 0 {
		if s.pos == sourceBufWords {
			s.refill()
		}
		n := min(sourceBufWords-s.pos, len(out))
		cdtMap(out[:n], s.buf[s.pos:s.pos+n], t)
		s.pos += n
		out = out[n:]
	}
}

// cdtMap maps words[:len(dst)] to signed errors: the vector kernel takes
// the longest multiple-of-4 prefix where it runs, cdtSample the rest.
func cdtMap(dst []int64, words, t []uint64) {
	k := cdtSampleVector(dst, words, t)
	cdtSample(dst[k:], words[k:len(dst)], t)
}

// cdtSample maps each word to a signed error: the magnitude is the
// number of thresholds in t at or below the word's top 63 bits, and the
// low bit is the sign. It counts the thresholds above instead, as the
// borrows of v − tk, which math/bits computes in constant time and the
// compiler chains into add-with-carry; two sums halve the carry chain.
func cdtSample(dst []int64, words, t []uint64) {
	size := uint64(len(t))
	for i, w := range words[:len(dst)] {
		v := w >> 1
		var a0, a1 uint64
		for j := 0; j < len(t); j += 4 {
			t4 := t[j : j+4 : j+4]
			_, b := bits.Sub64(v, t4[0], 0)
			a0, _ = bits.Add64(a0, 0, b)
			_, b = bits.Sub64(v, t4[1], 0)
			a1, _ = bits.Add64(a1, 0, b)
			_, b = bits.Sub64(v, t4[2], 0)
			a0, _ = bits.Add64(a0, 0, b)
			_, b = bits.Sub64(v, t4[3], 0)
			a1, _ = bits.Add64(a1, 0, b)
		}
		mag, neg := size-a0-a1, -(w & 1)
		dst[i] = int64((mag ^ neg) - neg)
	}
}

// cdtTables memoizes cdtTable per σ (keyed by its bits): the table is
// a pure function of σ, and the σ in use is a handful of constants.
var cdtTables sync.Map

func cdtFor(sigma float64) []uint64 {
	key := math.Float64bits(sigma)
	if t, ok := cdtTables.Load(key); ok {
		return t.([]uint64)
	}
	t, _ := cdtTables.LoadOrStore(key, cdtTable(sigma))
	return t.([]uint64)
}

// cdtPrec is the working precision of cdtTable, well past the 63 bits
// each threshold keeps.
const cdtPrec = 192

// cdtTable returns the ⌈6σ⌉ sorted thresholds of the folded
// distribution of |x|: with ρ(x) = exp(−x²/2σ²), S = Σ_{|x|≤⌈6σ⌉} ρ(x),
// P(0) = ρ(0)/S and P(k) = 2ρ(k)/S, entry k is round(2⁶³·(P(0)+…+P(k))).
// The magnitude of a 63-bit word v is the number of entries it reaches,
// which is k with probability P(k) to within 2⁻⁶³. Entries of 2⁶³,
// which no v reaches, pad the table to a multiple of four for the
// unrolled loop. It is computed in math/big, not float64, so the
// thresholds — and every key and ciphertext drawn from them — are the
// same bits on every platform.
func cdtTable(sigma float64) []uint64 {
	if !(sigma > 0) || math.IsInf(sigma, 1) {
		panic("sampling: sigma must be positive and finite")
	}
	bound := int(math.Ceil(6 * sigma))
	f := func(x float64) *big.Float { return new(big.Float).SetPrec(cdtPrec).SetFloat64(x) }
	// q = exp(−1/2σ²), so ρ(k) = q^(k²) = ρ(k−1)·q^(2k−1).
	sg := f(sigma)
	x := f(1)
	x.Quo(x, f(2).Mul(f(2), sg.Mul(sg, sg)))
	q := f(1)
	q.Quo(q, bigExp(x))
	q2 := f(0).Mul(q, q)
	weight := make([]*big.Float, bound+1) // ρ(0), 2ρ(1), …, 2ρ(bound)
	weight[0] = f(1)
	sum := f(1)
	rho, step := f(1), f(0).Set(q)
	for k := 1; k <= bound; k++ {
		rho.Mul(rho, step)
		step.Mul(step, q2)
		weight[k] = f(2).Mul(f(2), rho)
		sum.Add(sum, weight[k])
	}
	t := make([]uint64, (bound+3)&^3)
	for k := bound; k < len(t); k++ {
		t[k] = 1 << 63
	}
	cum := f(0)
	for k := range bound {
		cum.Add(cum, weight[k])
		v := f(0).Quo(cum, sum)
		v.SetMantExp(v, 63).Add(v, f(0.5))
		t[k], _ = v.Uint64()
	}
	return t
}

// bigExp returns e^x for x ≥ 0 at cdtPrec bits by its Taylor series.
func bigExp(x *big.Float) *big.Float {
	sum := new(big.Float).SetPrec(cdtPrec).SetInt64(1)
	term := new(big.Float).SetPrec(cdtPrec).SetInt64(1)
	n := new(big.Float).SetPrec(cdtPrec)
	for i := int64(1); term.Sign() > 0 && term.MantExp(nil) > sum.MantExp(nil)-cdtPrec-2; i++ {
		term.Mul(term, x)
		term.Quo(term, n.SetInt64(i))
		sum.Add(sum, term)
	}
	return sum
}

// Gaussian fills out with GaussianSigned's errors reduced mod q,
// drawing them a buffer's worth at a time through the stack.
func (s *Source) Gaussian(out []uint64, q uint64, sigma float64) {
	var signed [sourceBufWords]int64
	for len(out) > 0 {
		n := min(len(out), len(signed))
		s.GaussianSigned(signed[:n], sigma)
		for i, v := range signed[:n] {
			out[i] = uint64(v) + q&uint64(v>>63)
		}
		out = out[n:]
	}
}

// Float64 returns a uniform float in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform integer in [0, n).
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("sampling: Intn bound must be positive")
	}
	q := uint64(n)
	bound := q * (math.MaxUint64 / q)
	for {
		v := s.Uint64()
		if v < bound {
			return int(v % q)
		}
	}
}

// NormFloat64 returns one standard normal sample (used for generating
// synthetic model weights and datasets, not for cryptographic noise).
func (s *Source) NormFloat64() float64 {
	u1 := s.Float64() + math.SmallestNonzeroFloat64
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
