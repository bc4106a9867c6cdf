// Package sampling provides the random polynomial samplers required by
// RLWE encryption: uniform residues, ternary secrets, and centered
// discrete Gaussian errors. All randomness derives from the BLAKE3 XOF
// (the same PRNG the CHOCO-TACO hardware implements), so keygen and
// encryption are deterministic given a seed — which keeps every test,
// table, and figure in this repository reproducible.
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
	"math/bits"

	"choco/internal/blake3"
)

// DefaultSigma is the standard deviation of the error distribution used
// throughout (SEAL's default is 3.2).
const DefaultSigma = 3.2

// ErrorBound is the high-probability bound on error magnitude used by
// the analytic noise model: 6σ truncation, matching SEAL.
const ErrorBound = 6 * DefaultSigma

// sourceBufWords is the prefetch size: 256 words = 2 KiB = 32 BLAKE3
// output blocks per refill — four full passes of the 8-wide vector
// squeeze — enough to amortize the bulk-path entry cost while keeping
// a Source's buffer a small, cache-resident constant. The XOF stream
// is position-addressed, so the refill granularity never changes the
// sampled values.
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
func (s *Source) Ternary(out []uint64, q uint64) {
	// Draw 2 random bits per trial; the pair 0b11 is rejected so the
	// three remaining outcomes are equiprobable. Leftover bits are
	// discarded at the end of the call (as the pre-batched sampler
	// did), so the word consumption count is shape-determined.
	var buf uint64
	var bitsLeft int
	for i := range out {
		for {
			if bitsLeft < 2 {
				buf = s.Uint64()
				bitsLeft = 64
			}
			v := buf & 3
			buf >>= 2
			bitsLeft -= 2
			switch v {
			case 0:
				out[i] = 0
			case 1:
				out[i] = 1
			case 2:
				out[i] = q - 1
			default:
				continue
			}
			break
		}
	}
}

// TernarySigned fills out with values in {-1, 0, 1} as signed integers.
func (s *Source) TernarySigned(out []int64) {
	var buf uint64
	var bitsLeft int
	for i := range out {
		for {
			if bitsLeft < 2 {
				buf = s.Uint64()
				bitsLeft = 64
			}
			v := buf & 3
			buf >>= 2
			bitsLeft -= 2
			switch v {
			case 0:
				out[i] = 0
			case 1:
				out[i] = 1
			case 2:
				out[i] = -1
			default:
				continue
			}
			break
		}
	}
}

// GaussianSigned fills out with integers from a centered discrete
// Gaussian of standard deviation sigma, truncated at ±6σ (as in SEAL).
// Sampling uses the Box-Muller transform on XOF-derived uniforms
// followed by rounding; at σ=3.2 the statistical distance from the
// ideal discrete Gaussian is negligible for noise-growth purposes.
func (s *Source) GaussianSigned(out []int64, sigma float64) {
	bound := int64(math.Ceil(6 * sigma))
	i := 0
	for i < len(out) {
		// Two uniforms in (0,1].
		u1 := float64(s.Uint64()>>11)/float64(1<<53) + math.SmallestNonzeroFloat64
		u2 := float64(s.Uint64()>>11) / float64(1<<53)
		r := sigma * math.Sqrt(-2*math.Log(u1))
		z0 := r * math.Cos(2*math.Pi*u2)
		z1 := r * math.Sin(2*math.Pi*u2)
		for _, z := range [2]float64{z0, z1} {
			if i >= len(out) {
				break
			}
			v := int64(math.Round(z))
			if v > bound || v < -bound {
				continue
			}
			out[i] = v
			i++
		}
	}
}

// Gaussian fills out with centered Gaussian samples reduced mod q.
func (s *Source) Gaussian(out []uint64, q uint64, sigma float64) {
	signed := make([]int64, len(out))
	s.GaussianSigned(signed, sigma)
	for i, v := range signed {
		if v >= 0 {
			out[i] = uint64(v)
		} else {
			out[i] = q - uint64(-v)
		}
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
