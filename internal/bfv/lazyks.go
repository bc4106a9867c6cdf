package bfv

import (
	"fmt"

	"choco/internal/ring"
)

// Triple-hoisted key switching (DESIGN.md §13). The classic hoisted
// rotation path (hoisted.go) shares one digit decomposition across a
// batch, but every Galois element still pays its own inverse NTT over
// QP and its own divide-by-P. The lazy machinery here removes both:
//
//   - a QPAccumulator keeps the switching-key inner products of many
//     Galois elements summed in the extended basis QP, in the NTT
//     domain, so a whole giant-step sum pays one shared INTT and one
//     mod-down at FinalizeModDown;
//   - RotateRowsLazyNTT emits a rotation directly in the NTT domain of
//     the data ring, skipping the full-poly INTT → modDown → NTT round
//     trip a materialized rotation would pay before entering an NTT-
//     domain plaintext-multiply accumulation.
//
// Everything is byte-identical to the materialized path. The one
// nonlinear step in key switching is the centered rounding inside
// modDownByP; the accumulator keeps it exact by draining each
// element's special-prime row immediately (one single-row INTT),
// folding the centered representative into a running correction
// polynomial, and applying Σ corrections once at finalize:
//
//	Σᵢ round(xᵢ/P) = (Σᵢ xᵢ^(Q) − Σᵢ cᵢ) · P⁻¹ (mod q)
//
// where cᵢ is the centered remainder of xᵢ's P-row — exactly the value
// the per-element path subtracts, so the sums agree coefficient for
// coefficient.

// NTTCiphertext is a degree-1 ciphertext resident in the NTT domain of
// the data ring, the operand form of an NTT-domain multiply-accumulate
// chain (MulPlainAcc). Its polynomials come from the ring scratch pool;
// FromNTT consumes them into a regular ciphertext.
type NTTCiphertext struct {
	Value []*ring.Poly // len 2, NTT domain over Q
}

// ToNTT lifts a full-modulus degree-1 ciphertext into the NTT domain
// (copying — ct is not modified).
func (ev *Evaluator) ToNTT(ct *Ciphertext) *NTTCiphertext {
	if debugEnabled {
		ev.ctx.debugCheckCt("ToNTT", ct)
	}
	if len(ct.Value) != 2 || ct.Drop != 0 {
		panic("bfv: ToNTT requires a degree-1 full-modulus ciphertext")
	}
	rQ := ev.ctx.RingQ
	out := &NTTCiphertext{Value: make([]*ring.Poly, 2)}
	for i, p := range ct.Value {
		c := rQ.GetPoly()
		rQ.Copy(c, p)
		rQ.NTT(c)
		out.Value[i] = c
	}
	return out
}

// NewNTTAccumulator returns a zeroed NTT-domain ciphertext accumulator
// for MulPlainAcc chains. Consume with FromNTT or discard with Recycle.
func (ev *Evaluator) NewNTTAccumulator() *NTTCiphertext {
	rQ := ev.ctx.RingQ
	c0 := rQ.GetPoly()
	c1 := rQ.GetPoly()
	c0.DeclareNTT() // the all-zero polynomial is valid in either domain
	c1.DeclareNTT()
	return &NTTCiphertext{Value: []*ring.Poly{c0, c1}}
}

// MulPlainAcc accumulates acc += x ⊙ pm entirely in the NTT domain.
// A chain of MulPlainAcc calls followed by FromNTT is byte-identical
// to the same chain of MulPlain + Add on materialized ciphertexts: the
// inverse NTT is linear, so transforming the sum once equals summing
// the per-term transforms.
func (ev *Evaluator) MulPlainAcc(acc, x *NTTCiphertext, pm *PlaintextMul) {
	rQ := ev.ctx.RingQ
	for i := range acc.Value {
		rQ.MulCoeffsAdd(x.Value[i], pm.NTT, acc.Value[i])
	}
}

// FromNTT transforms acc back to the coefficient domain and returns it
// as a regular ciphertext, consuming acc (its polynomials move into
// the result; acc must not be used afterwards).
func (ev *Evaluator) FromNTT(acc *NTTCiphertext) *Ciphertext {
	rQ := ev.ctx.RingQ
	for _, p := range acc.Value {
		rQ.INTT(p)
	}
	out := &Ciphertext{Value: acc.Value}
	acc.Value = nil
	return out
}

// Recycle returns an NTT ciphertext's buffers to the scratch pool.
func (nc *NTTCiphertext) Recycle(ctx *Context) {
	for _, p := range nc.Value {
		ctx.RingQ.PutPoly(p)
	}
	nc.Value = nil
}

// RecycleCt returns a full-modulus ciphertext's component buffers to
// the data ring's scratch pool. Only for ciphertexts the caller owns
// outright (kernel intermediates); the ciphertext must not be used
// afterwards. Dropped-modulus components are silently skipped (PutPoly
// rejects shape mismatches).
func (ctx *Context) RecycleCt(ct *Ciphertext) {
	for _, p := range ct.Value {
		ctx.RingQ.PutPoly(p)
	}
	ct.Value = nil
}

// RecycleCt is the evaluator-side entry point for callers that do not
// hold the Context (kernel code in internal/core).
func (ev *Evaluator) RecycleCt(ct *Ciphertext) { ev.ctx.RecycleCt(ct) }

// RecycleNTT returns an NTT ciphertext's buffers to the scratch pool.
func (ev *Evaluator) RecycleNTT(nc *NTTCiphertext) { nc.Recycle(ev.ctx) }

// RotateRowsLazyNTT rotates the decomposed ciphertext by steps and
// returns the result directly in the NTT domain of the data ring —
// byte-identical to ToNTT(RotateRowsDecomposed(dc, steps)) but without
// ever materializing the coefficient-domain rotation: the switching-key
// inner product uses the fused NTT-domain gather, and the divide-by-P
// happens per residue row in the evaluation domain (nttModDownByP),
// paying one single-row INTT for the special prime and one forward NTT
// per data row of the rounding correction instead of a full-poly INTT
// plus a forward NTT of both output components. c0 joins as a gather of
// the decomposition's hoisted NTT(c0): NTT(φ_g(c0)) and the evaluation-
// domain permutation of NTT(c0) are the same residues.
func (ev *Evaluator) RotateRowsLazyNTT(dc *DecomposedCiphertext, steps int) (*NTTCiphertext, error) {
	if steps == 0 {
		return ev.ToNTT(dc.ct), nil
	}
	g := ev.ctx.RingQ.GaloisElementForRotation(steps)
	gk, ok := ev.galois[g]
	if !ok {
		return nil, fmt.Errorf("bfv: missing Galois key for element %d", g)
	}
	ctx := ev.ctx
	rQP := ctx.RingQP
	rQ := ctx.RingQ

	acc0 := rQP.GetPoly()
	acc1 := rQP.GetPoly()
	acc0.DeclareNTT()
	acc1.DeclareNTT()
	bShoup, aShoup := gk.Key.shoup(rQP)
	for i, d := range dc.digits {
		rQP.AutomorphismNTTMulShoupAdd2(d, g, gk.Key.B[i], bShoup[i], acc0, gk.Key.A[i], aShoup[i], acc1)
	}
	d0 := ev.nttModDownByP(acc0)
	d1 := ev.nttModDownByP(acc1)
	rQP.PutPoly(acc0)
	rQP.PutPoly(acc1)

	// c0's forward NTT is hoisted into dc; in the evaluation domain the
	// automorphism is the same slot gather the digits take, so each
	// element pays a permutation instead of a transform.
	c0 := rQ.GetPoly()
	rQ.AutomorphismNTT(dc.nttC0(), g, c0)
	rQ.Add(d0, c0, d0)
	rQ.PutPoly(c0)
	return &NTTCiphertext{Value: []*ring.Poly{d0, d1}}, nil
}

// nttModDownByP maps x mod QP (NTT domain) to round(x/P) mod Q, still
// in the NTT domain. Byte-identical, row for row, to
// NTT(modDownByP(INTT(x))): per data row i the coefficient-domain
// identity dst = (src − c)·P⁻¹ becomes NTT(dst) = (NTT(src) − NTT(c))·P⁻¹
// because the NTT is linear and commutes with multiplication by the
// scalar P⁻¹. Only the rounding correction c needs the coefficient
// domain — one single-row INTT of the special-prime row to read the
// centered remainders, one single-row forward NTT per data row to lift
// them back. x's special-prime row is consumed (left in the
// coefficient domain); the caller is expected to release x.
func (ev *Evaluator) nttModDownByP(x *ring.Poly) *ring.Poly {
	ctx := ev.ctx
	rQ := ctx.RingQ
	rQP := ctx.RingQP
	nData := len(rQ.Moduli)
	pMod := rQP.Moduli[nData]
	p := pMod.Value
	halfP := p >> 1

	xp := x.Coeffs[nData]
	rQP.NTTInverseRow(nData, xp)

	out := rQ.GetPoly()
	out.DeclareNTT()
	for i, m := range rQ.Moduli {
		pi := ctx.pInvQ[i]
		pis := m.ShoupPrecomp(pi)
		pModQ := m.Reduce(p)
		dst := out.Coeffs[i]
		src := x.Coeffs[i][:len(dst)]
		xr := xp[:len(dst)]
		// Centered remainder of the P-row, reduced mod q_i — exactly
		// modDownByP's correction — then lifted to the NTT domain.
		for k := range dst {
			t := xr[k]
			c := m.Reduce(t)
			if t > halfP {
				c = m.Sub(c, pModQ)
			}
			dst[k] = c
		}
		rQ.NTTForwardRow(i, dst)
		for k := range dst {
			dst[k] = m.MulShoup(m.Sub(src[k], dst[k]), pi, pis)
		}
	}
	return out
}

// QPAccumulator sums the key-switch products of many Galois elements in
// the extended basis QP so the whole sum pays a single INTT + mod-down
// (FinalizeModDown) instead of one per element. Obtain with
// NewQPAccumulator; feed with AccumulateQP (lazy rotations) and AddLazy
// (unrotated terms); combine per-worker partials with Merge. All
// arithmetic is exact modular accumulation, so any grouping of the same
// terms finalizes to bit-identical polynomials.
type QPAccumulator struct {
	ctx *Context

	// Σ switching-key inner products over QP, NTT domain. The data rows
	// accumulate across elements; the special-prime row is per-element
	// scratch, drained into corr and re-zeroed by each AccumulateQP.
	acc0, acc1 *ring.Poly

	// Σ centered remainders of each element's special-prime row, mod Q,
	// coefficient domain — the rounding corrections FinalizeModDown
	// subtracts before the shared divide by P.
	corr0, corr1 *ring.Poly

	// Σ plain ciphertext parts: rotated c0 halves and AddLazy operands,
	// mod Q, coefficient domain.
	c0, c1 *ring.Poly

	// elements counts AccumulateQP calls; adds counts AddLazy calls.
	elements, adds int
}

// NewQPAccumulator returns an empty accumulator drawing its six
// polynomials from the ring scratch pools. Release or FinalizeModDown
// it when done.
func (ev *Evaluator) NewQPAccumulator() *QPAccumulator {
	ctx := ev.ctx
	acc0 := ctx.RingQP.GetPoly()
	acc1 := ctx.RingQP.GetPoly()
	acc0.DeclareNTT()
	acc1.DeclareNTT()
	return &QPAccumulator{
		ctx:   ctx,
		acc0:  acc0,
		acc1:  acc1,
		corr0: ctx.RingQ.GetPoly(),
		corr1: ctx.RingQ.GetPoly(),
		c0:    ctx.RingQ.GetPoly(),
		c1:    ctx.RingQ.GetPoly(),
	}
}

// Release returns the accumulator's buffers to the scratch pools
// without finalizing. The accumulator must not be used afterwards.
func (qa *QPAccumulator) Release() {
	qa.ctx.RingQP.PutPoly(qa.acc0)
	qa.ctx.RingQP.PutPoly(qa.acc1)
	qa.ctx.RingQ.PutPoly(qa.corr0)
	qa.ctx.RingQ.PutPoly(qa.corr1)
	qa.ctx.RingQ.PutPoly(qa.c0)
	qa.ctx.RingQ.PutPoly(qa.c1)
	qa.acc0, qa.acc1, qa.corr0, qa.corr1, qa.c0, qa.c1 = nil, nil, nil, nil, nil, nil
}

// AddLazy folds a full-modulus degree-1 ciphertext into the
// accumulator without any key switch (the i = 0 giant step, or any
// already-aligned term).
func (ev *Evaluator) AddLazy(qa *QPAccumulator, ct *Ciphertext) error {
	if debugEnabled {
		ev.ctx.debugCheckCt("AddLazy", ct)
	}
	if len(ct.Value) != 2 || ct.Drop != 0 {
		return fmt.Errorf("bfv: AddLazy requires a degree-1 full-modulus ciphertext")
	}
	rQ := ev.ctx.RingQ
	rQ.Add(qa.c0, ct.Value[0], qa.c0)
	rQ.Add(qa.c1, ct.Value[1], qa.c1)
	qa.adds++
	return nil
}

// AccumulateQP applies one lazy rotation of the decomposed ciphertext:
// the switching-key inner product lands in the accumulator's QP rows
// via the fused NTT-domain gather, the element's rounding correction is
// drained from the special-prime row (one single-row INTT), and the
// rotated c0 half joins the plain sum. No full INTT, no mod-down — the
// whole accumulated sum pays those once, in FinalizeModDown.
func (ev *Evaluator) AccumulateQP(qa *QPAccumulator, dc *DecomposedCiphertext, steps int) error {
	if steps == 0 {
		return ev.AddLazy(qa, dc.ct)
	}
	g := ev.ctx.RingQ.GaloisElementForRotation(steps)
	gk, ok := ev.galois[g]
	if !ok {
		return fmt.Errorf("bfv: missing Galois key for element %d", g)
	}
	rQP := ev.ctx.RingQP
	rQ := ev.ctx.RingQ

	bShoup, aShoup := gk.Key.shoup(rQP)
	for i, d := range dc.digits {
		rQP.AutomorphismNTTMulShoupAdd2(d, g, gk.Key.B[i], bShoup[i], qa.acc0, gk.Key.A[i], aShoup[i], qa.acc1)
	}
	ev.drainSpecialRow(qa.acc0, qa.corr0)
	ev.drainSpecialRow(qa.acc1, qa.corr1)

	c0 := rQ.GetPoly()
	rQ.Automorphism(dc.ct.Value[0], g, c0)
	rQ.Add(qa.c0, c0, qa.c0)
	rQ.PutPoly(c0)
	qa.elements++
	return nil
}

// drainSpecialRow converts the special-prime row of x (holding exactly
// one element's inner-product contribution) to the coefficient domain,
// folds its centered remainder mod each data prime into corr, and
// zeroes the row so the next element starts clean. This is the step
// that keeps lazy accumulation exact: modDownByP's rounding is
// nonlinear across elements, but its correction term is just the
// centered P-row remainder, and those sum linearly.
func (ev *Evaluator) drainSpecialRow(x, corr *ring.Poly) {
	ctx := ev.ctx
	rQ := ctx.RingQ
	rQP := ctx.RingQP
	nData := len(rQ.Moduli)
	p := rQP.Moduli[nData].Value
	halfP := p >> 1

	xp := x.Coeffs[nData]
	rQP.NTTInverseRow(nData, xp)
	for i, m := range rQ.Moduli {
		pModQ := m.Reduce(p)
		dst := corr.Coeffs[i]
		xr := xp[:len(dst)]
		for k := range dst {
			t := xr[k]
			c := m.Reduce(t)
			if t > halfP {
				c = m.Sub(c, pModQ)
			}
			dst[k] = m.Add(dst[k], c)
		}
	}
	for k := range xp {
		xp[k] = 0
	}
}

// Merge folds other into qa (qa += other) and releases other. Partial
// accumulators built by different workers over disjoint element subsets
// merge to the same bytes as a single serial accumulator: every field
// is a plain modular sum.
func (qa *QPAccumulator) Merge(other *QPAccumulator) {
	if debugEnabled {
		qa.debugCheckLazyInvariants("Merge")
		other.debugCheckLazyInvariants("Merge")
	}
	rQP := qa.ctx.RingQP
	rQ := qa.ctx.RingQ
	rQP.Add(qa.acc0, other.acc0, qa.acc0)
	rQP.Add(qa.acc1, other.acc1, qa.acc1)
	rQ.Add(qa.corr0, other.corr0, qa.corr0)
	rQ.Add(qa.corr1, other.corr1, qa.corr1)
	rQ.Add(qa.c0, other.c0, qa.c0)
	rQ.Add(qa.c1, other.c1, qa.c1)
	qa.elements += other.elements
	qa.adds += other.adds
	other.Release()
}

// FinalizeModDown closes the accumulator: one inverse NTT over the
// accumulated data rows, one subtract-corrections-and-divide-by-P
// sweep, and the plain sums folded in. The result is byte-identical to
// rotating every element individually and Add-folding the outputs.
// Consumes the accumulator.
func (ev *Evaluator) FinalizeModDown(qa *QPAccumulator) *Ciphertext {
	if debugEnabled {
		qa.debugCheckLazyInvariants("FinalizeModDown")
	}
	ctx := ev.ctx
	rQ := ctx.RingQ
	rQP := ctx.RingQP

	out := &Ciphertext{Value: make([]*ring.Poly, 2)}
	for vi, half := range [][3]*ring.Poly{
		{qa.acc0, qa.corr0, qa.c0},
		{qa.acc1, qa.corr1, qa.c1},
	} {
		acc, corr, plain := half[0], half[1], half[2]
		dst := rQ.GetPoly()
		for i, m := range rQ.Moduli {
			pi := ctx.pInvQ[i]
			pis := m.ShoupPrecomp(pi)
			src := acc.Coeffs[i]
			rQP.NTTInverseRow(i, src)
			d := dst.Coeffs[i]
			cr := corr.Coeffs[i][:len(d)]
			pl := plain.Coeffs[i][:len(d)]
			for k := range d {
				d[k] = m.Add(pl[k], m.MulShoup(m.Sub(src[k], cr[k]), pi, pis))
			}
		}
		out.Value[vi] = dst
	}
	qa.Release()
	return out
}

// debugCheckLazyInvariants asserts, under the chocodebug build tag,
// that the accumulator holds canonical residues and that the
// special-prime rows are fully drained (the lazy-accumulation
// invariant between AccumulateQP calls).
func (qa *QPAccumulator) debugCheckLazyInvariants(op string) {
	ctx := qa.ctx
	nData := len(ctx.RingQ.Moduli)
	for pi, p := range []*ring.Poly{qa.acc0, qa.acc1} {
		for i, m := range ctx.RingQP.Moduli {
			for k, v := range p.Coeffs[i] {
				if v >= m.Value {
					panic(fmt.Sprintf("bfv: chocodebug: %s accumulator %d residue [%d][%d] = %d out of range mod %d",
						op, pi, i, k, v, m.Value))
				}
				if i == nData && v != 0 {
					panic(fmt.Sprintf("bfv: chocodebug: %s accumulator %d special-prime row not drained at [%d]", op, pi, k))
				}
			}
		}
	}
	for pi, p := range []*ring.Poly{qa.corr0, qa.corr1, qa.c0, qa.c1} {
		for i, m := range ctx.RingQ.Moduli {
			for k, v := range p.Coeffs[i] {
				if v >= m.Value {
					panic(fmt.Sprintf("bfv: chocodebug: %s correction %d residue [%d][%d] = %d out of range mod %d",
						op, pi, i, k, v, m.Value))
				}
			}
		}
	}
}
