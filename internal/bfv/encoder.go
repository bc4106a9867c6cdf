package bfv

import (
	"fmt"

	"choco/internal/ring"
)

// Plaintext is an encoded BFV plaintext: a degree-N polynomial with
// coefficients modulo t. Poly lives in the plaintext ring's coefficient
// domain.
type Plaintext struct {
	Poly *ring.Poly
}

// Encoder packs vectors of integers mod t into plaintext polynomials
// arranged as a 2×(N/2) matrix of slots, so that Galois automorphisms
// realize row rotations and the row swap (SEAL BatchEncoder semantics).
type Encoder struct {
	ctx *Context
}

// NewEncoder returns an encoder for the context.
func NewEncoder(ctx *Context) *Encoder { return &Encoder{ctx: ctx} }

// EncodeUints encodes up to N values (mod t) into a fresh plaintext.
// Missing trailing values are zero.
func (e *Encoder) EncodeUints(values []uint64) (*Plaintext, error) {
	n := e.ctx.Params.N()
	if len(values) > n {
		return nil, fmt.Errorf("bfv: %d values exceed %d slots", len(values), n)
	}
	pt := &Plaintext{Poly: e.ctx.RingT.NewPoly()}
	row := pt.Poly.Coeffs[0]
	t := e.ctx.T
	for i, v := range values {
		row[e.ctx.indexMap[i]] = t.Reduce(v)
	}
	// The slot values are evaluations; interpolate to coefficients.
	pt.Poly.DeclareNTT()
	e.ctx.RingT.INTT(pt.Poly)
	return pt, nil
}

// EncodeInts encodes signed values; negatives map to t - |v|.
func (e *Encoder) EncodeInts(values []int64) (*Plaintext, error) {
	t := e.ctx.T.Value
	u := make([]uint64, len(values))
	for i, v := range values {
		if v >= 0 {
			u[i] = uint64(v) % t
		} else {
			u[i] = t - uint64(-v)%t
			if u[i] == t {
				u[i] = 0
			}
		}
	}
	return e.EncodeUints(u)
}

// DecodeUints returns all N slot values of the plaintext.
func (e *Encoder) DecodeUints(pt *Plaintext) []uint64 {
	n := e.ctx.Params.N()
	tmp := e.ctx.RingT.CopyPoly(pt.Poly)
	e.ctx.RingT.NTT(tmp)
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = tmp.Coeffs[0][e.ctx.indexMap[i]]
	}
	return out
}

// DecodeInts returns slot values centered into (-t/2, t/2].
func (e *Encoder) DecodeInts(pt *Plaintext) []int64 {
	u := e.DecodeUints(pt)
	t := e.ctx.T.Value
	half := t / 2
	out := make([]int64, len(u))
	for i, v := range u {
		if v > half {
			out[i] = -int64(t - v)
		} else {
			out[i] = int64(v)
		}
	}
	return out
}

// liftToQP embeds the plaintext coefficients (mod t) into the key ring —
// the data primes and the special prime alike — as values in [0, t),
// coefficient domain.
func (e *Encoder) liftToQP(pt *Plaintext) *ring.Poly {
	out := e.ctx.RingQP.NewPoly()
	e.ctx.RingQP.SetCoeffsUint64(pt.Poly.Coeffs[0], out)
	return out
}

// liftToQScaled embeds Δ·m into the data ring (coefficient domain); the
// form added to ciphertexts by encryption and plaintext addition.
func (e *Encoder) liftToQScaled(pt *Plaintext) *ring.Poly {
	r := e.ctx.RingQ
	out := r.NewPoly()
	for i, m := range r.Moduli {
		d := e.ctx.deltaRNS[i]
		ds := m.ShoupPrecomp(d)
		src := pt.Poly.Coeffs[0]
		dst := out.Coeffs[i]
		for j := range dst {
			dst[j] = m.MulShoup(m.Reduce(src[j]), d, ds)
		}
	}
	return out
}
