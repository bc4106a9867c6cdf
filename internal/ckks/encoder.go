package ckks

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"

	"choco/internal/nt"
	"choco/internal/ring"
)

// Plaintext is an encoded CKKS plaintext: an integer polynomial at some
// level carrying a scale.
type Plaintext struct {
	Poly  *ring.Poly
	Level int
	Scale float64
	// shoup holds the Shoup companions of Poly's NTT-domain rows once
	// PrepareMulPlain attached them, for MulPlain; nil before.
	shoup [][]uint64
}

// PrepareMulPlain readies pt for MulPlain: it moves Poly to the NTT
// domain, if it is not there yet, and attaches the Shoup companions of
// its rows, so that each MulPlain by pt is a Shoup product (the same
// canonical residues as MulCoeffs' Barrett one, in fewer operations).
// The companions cost one more polynomial of memory (N·(Level+1)
// words). Poly must not change afterwards.
func (ctx *Context) PrepareMulPlain(pt *Plaintext) {
	r := ctx.RingAtLevel(pt.Level)
	if !pt.Poly.IsNTT() {
		r.NTT(pt.Poly)
	}
	pt.shoup = r.ShoupPolyPrecomp(pt.Poly)
}

// Encoder maps vectors of complex values to ring elements through the
// canonical embedding (special FFT over the 5^j root ordering). It keeps
// no mutable state: one Encoder may serve any number of goroutines.
type Encoder struct {
	ctx *Context
}

// NewEncoder returns an encoder for the context.
func NewEncoder(ctx *Context) *Encoder { return &Encoder{ctx: ctx} }

// codec holds the tables encode and decode run on, built once per
// Context. Everything in it is read-only after newCodec except slots,
// which is a sync.Pool.
//
// The twiddle tables store, for the FFT stage whose butterflies span
// lenh = length/2 slots, the lenh roots that stage multiplies by at
// [lenh, 2·lenh): embedTw[lenh+j] = roots[(5^j mod 4·length)·gap] and
// embedInvTw[lenh+j] = roots[(4·length − 5^j mod 4·length)·gap] with
// gap = 2N/(4·length) and roots[k] = e^{2πik/2N}.
//
// The word constants cover every data prime; level ℓ reads the first
// ℓ+1 entries. garnerInv[i][k] = q_k⁻¹ mod q_i (k < i) with its Shoup
// companion turns residues into mixed-radix digits; radix[i] = Π_{k<i} q_k
// rounded to the nearest float weighs digit i; halfDigit[i] = (q_i − 1)/2
// is digit i of ⌊Q_ℓ/2⌋ at every level ℓ ≥ i (Σ_i (q_i−1)/2·Π_{k<i} q_k
// telescopes to (Q_ℓ − 1)/2). coeffLimit[ℓ] is ⌊Q_ℓ/2⌋ rounded down to a
// float: a rounded coefficient r has a centred representative at level ℓ
// iff |r| ≤ coeffLimit[ℓ].
type codec struct {
	embedTw, embedInvTw []complex128

	garnerInv, garnerInvShoup [][]uint64
	radix                     []float64
	halfDigit                 []uint64
	coeffLimit                []float64

	// slots recycles the N/2-slot scratch vectors (*[]complex128) encode
	// and DecodeFloats transform in place.
	slots sync.Pool
}

// newCodec builds the embedding and word tables for ring degree n over
// the data primes.
func newCodec(n int, moduli []nt.Modulus) *codec {
	m := 2 * n
	nh := n / 2
	rotGroup := make([]int, nh)
	g := 1
	for i := range rotGroup {
		rotGroup[i] = g
		g = g * 5 % m
	}
	roots := make([]complex128, m+1)
	for k := range roots {
		angle := 2 * math.Pi * float64(k) / float64(m)
		roots[k] = complex(math.Cos(angle), math.Sin(angle))
	}
	c := &codec{embedTw: make([]complex128, nh), embedInvTw: make([]complex128, nh)}
	for lenh := 1; lenh < nh; lenh <<= 1 {
		lenq := lenh << 3
		gap := m / lenq
		for j := 0; j < lenh; j++ {
			c.embedTw[lenh+j] = roots[rotGroup[j]%lenq*gap]
			c.embedInvTw[lenh+j] = roots[(lenq-rotGroup[j]%lenq)*gap]
		}
	}

	L := len(moduli)
	c.garnerInv, c.garnerInvShoup = make([][]uint64, L), make([][]uint64, L)
	c.radix, c.halfDigit, c.coeffLimit = make([]float64, L), make([]uint64, L), make([]float64, L)
	prod := []uint64{1} // Π_{k<i} q_k as little-endian words
	for i, qi := range moduli {
		c.garnerInv[i], c.garnerInvShoup[i] = make([]uint64, i), make([]uint64, i)
		for k := 0; k < i; k++ {
			inv, ok := qi.Inv(qi.Reduce(moduli[k].Value))
			if !ok {
				panic("ckks: data primes not pairwise coprime")
			}
			c.garnerInv[i][k], c.garnerInvShoup[i][k] = inv, qi.ShoupPrecomp(inv)
		}
		c.radix[i], _ = wordsFloat(prod)
		c.halfDigit[i] = (qi.Value - 1) / 2
		prod = mulWord(prod, qi.Value)
		_, c.coeffLimit[i] = wordsFloat(shr1(prod))
	}
	c.slots.New = func() any {
		s := make([]complex128, nh)
		return &s
	}
	return c
}

// mulWord returns a·w for a little-endian word integer a.
func mulWord(a []uint64, w uint64) []uint64 {
	out := make([]uint64, len(a)+1)
	var carry uint64
	for i, x := range a {
		hi, lo := bits.Mul64(x, w)
		var c uint64
		out[i], c = bits.Add64(lo, carry, 0)
		carry = hi + c
	}
	out[len(a)] = carry
	return out
}

// shr1 returns a >> 1 for a little-endian word integer a.
func shr1(a []uint64) []uint64 {
	out := make([]uint64, len(a))
	for i, x := range a {
		out[i] = x >> 1
		if i+1 < len(a) {
			out[i] |= a[i+1] << 63
		}
	}
	return out
}

// wordsFloat converts a little-endian word integer to float64, rounded
// to nearest (ties to even) and rounded down.
func wordsFloat(a []uint64) (nearest, down float64) {
	n := len(a)
	for n > 0 && a[n-1] == 0 {
		n--
	}
	if n == 0 {
		return 0, 0
	}
	// The top 64 bits, with every bit below them folded into the lowest
	// (a sticky bit): float64 of that word rounds exactly as the whole
	// integer would.
	width := (n-1)*64 + bits.Len64(a[n-1])
	shift := max(width-64, 0)
	k, b := shift/64, uint(shift%64)
	top := a[k] >> b
	if b > 0 && k+1 < n {
		top |= a[k+1] << (64 - b)
	}
	sticky := a[k]&(1<<b-1) != 0
	for _, w := range a[:k] {
		sticky = sticky || w != 0
	}
	if sticky {
		top |= 1
	}
	drop := uint(max(min(width, 64)-53, 0)) // top's bits below a float's 53
	return math.Ldexp(float64(top), shift), math.Ldexp(float64(top>>drop<<drop), shift)
}

// embedInv computes the inverse canonical embedding in place (slots →
// polynomial evaluations basis), following the HEAAN special inverse
// FFT over the rotation-group root ordering.
func (e *Encoder) embedInv(vals []complex128) {
	n := len(vals)
	tw := e.ctx.codec.embedInvTw
	for length := n; length >= 2; length >>= 1 {
		lenh := length >> 1
		w := tw[lenh : 2*lenh]
		for i := 0; i < n; i += length {
			lo, hi := vals[i:i+lenh], vals[i+lenh:i+length]
			for j, t := range w {
				u := lo[j] + hi[j]
				v := (lo[j] - hi[j]) * t
				lo[j] = u
				hi[j] = v
			}
		}
	}
	bitReverseComplex(vals)
	inv := complex(1/float64(n), 0)
	for i := range vals {
		vals[i] *= inv
	}
}

// embed computes the forward canonical embedding in place (polynomial
// basis → slot values).
func (e *Encoder) embed(vals []complex128) {
	n := len(vals)
	tw := e.ctx.codec.embedTw
	bitReverseComplex(vals)
	for length := 2; length <= n; length <<= 1 {
		lenh := length >> 1
		w := tw[lenh : 2*lenh]
		for i := 0; i < n; i += length {
			lo, hi := vals[i:i+lenh], vals[i+lenh:i+length]
			for j, t := range w {
				u := lo[j]
				v := hi[j] * t
				lo[j] = u + v
				hi[j] = u - v
			}
		}
	}
}

func bitReverseComplex(vals []complex128) {
	n := len(vals)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			vals[i], vals[j] = vals[j], vals[i]
		}
	}
}

// checkEncode validates what encoding can refuse before it transforms
// anything: the slot count, the level and the scale.
func (e *Encoder) checkEncode(n, level int, scale float64) error {
	if nh := e.ctx.Params.Slots(); n > nh {
		return fmt.Errorf("ckks: %d values exceed %d slots", n, nh)
	}
	if level < 0 || level > e.ctx.Params.MaxLevel() {
		return fmt.Errorf("ckks: level %d outside [0, %d]", level, e.ctx.Params.MaxLevel())
	}
	if !(scale > 0) || math.IsInf(scale, 0) {
		return fmt.Errorf("ckks: scale %v must be positive and finite", scale)
	}
	return nil
}

// EncodeComplex encodes up to N/2 complex values at the given level and
// scale. Missing trailing slots are zero. A non-finite slot, or values so
// large that a coefficient rounds past ±⌊Q_ℓ/2⌋ (where it would wrap mod
// Q_ℓ), is an error naming the slot.
func (e *Encoder) EncodeComplex(values []complex128, level int, scale float64) (*Plaintext, error) {
	if err := e.checkEncode(len(values), level, scale); err != nil {
		return nil, err
	}
	buf := e.ctx.codec.slots.Get().(*[]complex128)
	defer e.ctx.codec.slots.Put(buf)
	clear((*buf)[copy(*buf, values):])
	return e.encode(*buf, len(values), level, scale, false)
}

// EncodeFloats encodes real values; see EncodeComplex.
func (e *Encoder) EncodeFloats(values []float64, level int, scale float64) (*Plaintext, error) {
	return e.encodeFloats(values, level, scale, false)
}

// EncodeFloatsQP is EncodeFloats over the key ring (q0..ql, p) of the
// level, its ⌊Q_ℓ/2⌋ refusal included, then one forward NTT: the
// plaintext operand of rlwe.Context.MulPlainAcc.
func (e *Encoder) EncodeFloatsQP(values []float64, level int, scale float64) (*ring.Poly, error) {
	pt, err := e.encodeFloats(values, level, scale, true)
	if err != nil {
		return nil, err
	}
	e.ctx.KeyRingAtLevel(level).NTT(pt.Poly)
	return pt.Poly, nil
}

// encodeFloats is EncodeFloats, lifted or not (see encode).
func (e *Encoder) encodeFloats(values []float64, level int, scale float64, lifted bool) (*Plaintext, error) {
	if err := e.checkEncode(len(values), level, scale); err != nil {
		return nil, err
	}
	buf := e.ctx.codec.slots.Get().(*[]complex128)
	defer e.ctx.codec.slots.Put(buf)
	s := *buf
	for i, v := range values {
		s[i] = complex(v, 0)
	}
	clear(s[len(values):])
	return e.encode(s, len(values), level, scale, lifted)
}

// encode transforms the slot vector buf (n values, then zeros) in place
// and rounds its coefficients scale·x into a new plaintext, whose
// polynomial has the residue rows of the level or, lifted, of its key
// ring (q0..ql, p). A coefficient v rounds half away from zero
// (math.Round). When |round(v)| < 2^63 it is one signed word reduced per
// residue; beyond that, which only a Q_ℓ above 2^64 admits, round(v) = v
// is an exact integer mant·2^e and its residue is (mant mod q)·(2^e mod q).
func (e *Encoder) encode(buf []complex128, n, level int, scale float64, lifted bool) (*Plaintext, error) {
	// An overflow names the slot with the largest part, peak.
	peak, peakAbs := 0, 0.0
	for i, v := range buf[:n] {
		if cmplx.IsNaN(v) || cmplx.IsInf(v) {
			return nil, fmt.Errorf("ckks: slot %d is %v", i, v)
		}
		if a := max(math.Abs(real(v)), math.Abs(imag(v))); a > peakAbs {
			peak, peakAbs = i, a
		}
	}
	top := buf[peak]
	e.embedInv(buf)
	r := e.ctx.RingAtLevel(level)
	if lifted {
		r = e.ctx.KeyRingAtLevel(level)
	}
	pt := &Plaintext{Poly: r.NewPoly(), Level: level, Scale: scale}
	limit := e.ctx.codec.coeffLimit[level]
	rows, moduli := pt.Poly.Coeffs, r.Moduli
	nh := len(buf)
	for j, z := range buf {
		if !setCoeff(rows, moduli, j, real(z)*scale, limit) || !setCoeff(rows, moduli, j+nh, imag(z)*scale, limit) {
			return nil, fmt.Errorf("ckks: slot %d (%v) at scale %g does not fit level %d: a coefficient rounds past ⌊Q/2⌋ ≈ %g",
				peak, top, scale, level, limit)
		}
	}
	return pt, nil
}

// setCoeff writes round(v) into coefficient j of every residue row and
// reports whether it lies within ±limit (false for NaN and ±Inf too).
func setCoeff(rows [][]uint64, moduli []nt.Modulus, j int, v, limit float64) bool {
	rv := math.Round(v)
	if !(math.Abs(rv) <= limit) {
		return false
	}
	if math.Abs(rv) < 0x1p63 {
		w := int64(rv)
		if w >= 0 {
			for i, m := range moduli {
				rows[i][j] = m.Reduce(uint64(w))
			}
		} else {
			for i, m := range moduli {
				rows[i][j] = m.Neg(m.Reduce(uint64(-w)))
			}
		}
		return true
	}
	b := math.Float64bits(rv)
	mant := b&(1<<52-1) | 1<<52
	exp := uint64(b>>52&0x7ff) - 1075 // rv = ±mant·2^exp, exp ≥ 11
	for i, m := range moduli {
		x := m.Mul(m.Reduce(mant), m.Pow(2, exp))
		if rv < 0 {
			x = m.Neg(x)
		}
		rows[i][j] = x
	}
	return true
}

// DecodeComplex returns all N/2 slot values of a plaintext.
func (e *Encoder) DecodeComplex(pt *Plaintext) []complex128 {
	vals := make([]complex128, e.ctx.Params.Slots())
	e.decode(pt, vals)
	return vals
}

// DecodeFloats returns the real parts of all slots.
func (e *Encoder) DecodeFloats(pt *Plaintext) []float64 {
	buf := e.ctx.codec.slots.Get().(*[]complex128)
	defer e.ctx.codec.slots.Put(buf)
	e.decode(pt, *buf)
	out := make([]float64, len(*buf))
	for i, v := range *buf {
		out[i] = real(v)
	}
	return out
}

// decode writes pt's slot values into vals (N/2 entries): each
// coefficient's centred representative as a float (liftFloat), divided
// by the scale, then the forward embedding.
func (e *Encoder) decode(pt *Plaintext, vals []complex128) {
	r := e.ctx.RingAtLevel(pt.Level)
	p := pt.Poly
	if p.IsNTT() {
		q := r.GetPoly()
		defer r.PutPoly(q)
		r.Copy(q, r.Prefix(p))
		r.INTT(q)
		p = q
	}
	c := e.ctx.codec
	rows, moduli := p.Coeffs[:len(r.Moduli)], r.Moduli
	var stack [8]uint64
	d := stack[:0]
	if len(moduli) > len(stack) {
		d = make([]uint64, len(moduli))
	}
	d = d[:len(moduli)]
	nh := len(vals)
	for j := range vals {
		re := c.liftFloat(rows, moduli, j, d) / pt.Scale
		im := c.liftFloat(rows, moduli, j+nh, d) / pt.Scale
		vals[j] = complex(re, im)
	}
	e.embed(vals)
}

// liftFloat returns coefficient j's centred representative in
// (−Q_ℓ/2, Q_ℓ/2] as a float, using d (one word per residue) as scratch.
// Garner's mixed-radix digits x = Σ d_i·Π_{k<i} q_k come first; x is
// above ⌊Q_ℓ/2⌋ iff its digits compare greater from the top, and then
// Q_ℓ − x is the digit complement (q_i − 1 − d_i) plus one. The float is
// summed from the top digit down: exact below 2^53, within L ulps above
// (DESIGN §8), and with one residue the exactly rounded centred lift.
func (c *codec) liftFloat(rows [][]uint64, moduli []nt.Modulus, j int, d []uint64) float64 {
	for i, m := range moduli {
		t := rows[i][j]
		for k, inv := range c.garnerInv[i] {
			t = m.MulShoup(m.Sub(t, m.Reduce(d[k])), inv, c.garnerInvShoup[i][k])
		}
		d[i] = t
	}
	neg := false
	for i := len(d) - 1; i >= 0; i-- {
		if d[i] != c.halfDigit[i] {
			neg = d[i] > c.halfDigit[i]
			break
		}
	}
	if neg {
		for i, m := range moduli {
			d[i] = m.Value - 1 - d[i]
		}
		// The one needs no carry: a digit 0 equal to q_0 weighs the same
		// as a carry into digit 1.
		d[0]++
	}
	f := 0.0
	for i := len(d) - 1; i >= 0; i-- {
		if d[i] != 0 { // a zero digit adds nothing, even where its weight overflows
			f += float64(d[i]) * c.radix[i]
		}
	}
	f = min(f, math.MaxFloat64)
	if neg {
		return -f
	}
	return f
}
