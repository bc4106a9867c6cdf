package bfv

import (
	"fmt"
	"sync"

	"choco/internal/par"
	"choco/internal/ring"
)

// DecomposedCiphertext is the hoisted (Halevi–Shoup) form of a degree-1
// ciphertext: the per-data-prime RNS digits of c1, embedded into the QP
// basis and forward-NTT-transformed once. Every rotation of the same
// ciphertext normally pays that decomposition again inside keySwitch;
// holding it here lets a batch of k rotations pay it once, with each
// Galois element applied to the digits directly in the NTT domain (a
// slot permutation) before the switching-key inner product. Obtain with
// Evaluator.Decompose, rotate with RotateRowsDecomposed /
// RotateColumnsDecomposed, and call Release when done — the digit
// buffers come from the QP ring's scratch pool.
type DecomposedCiphertext struct {
	ct     *Ciphertext
	digits []*ring.Poly // one per data prime, over QP, NTT domain
	ctx    *Context

	// c0NTT is NTT(c0), the other half hoisted: lazy NTT-domain
	// rotations gather it per Galois element instead of each paying an
	// automorphism plus a forward NTT of c0. Built on the first such
	// rotation (the materialized paths never need it), released with
	// the digits.
	c0Once sync.Once
	c0NTT  *ring.Poly
}

// nttC0 returns NTT(c0), building it on first use. Safe for concurrent
// callers; the result is read-only.
func (dc *DecomposedCiphertext) nttC0() *ring.Poly {
	dc.c0Once.Do(func() {
		rQ := dc.ctx.RingQ
		p := rQ.GetPoly()
		rQ.Copy(p, dc.ct.Value[0])
		rQ.NTT(p)
		dc.c0NTT = p
	})
	return dc.c0NTT
}

// Decompose performs the per-residue embedding and forward NTTs of
// ct's c1 once, returning the hoisted state shared by all subsequent
// rotations of ct. The ciphertext must be degree 1 at full modulus.
// The returned value references ct (it is not copied); it is safe for
// concurrent use by multiple rotations once built.
func (ev *Evaluator) Decompose(ct *Ciphertext) (*DecomposedCiphertext, error) {
	if debugEnabled {
		ev.ctx.debugCheckCt("Decompose", ct)
	}
	if len(ct.Value) != 2 {
		return nil, fmt.Errorf("bfv: rotation requires a degree-1 ciphertext")
	}
	if ct.Drop != 0 {
		return nil, fmt.Errorf("bfv: rotation requires a full-modulus ciphertext")
	}
	ctx := ev.ctx
	rQP := ctx.RingQP
	nData := len(ctx.RingQ.Moduli)
	digits := make([]*ring.Poly, nData)
	// Digits are independent; fan them out. Each NTT also fans its
	// residue rows internally when it is the only level running.
	par.For(nData, func(i int) {
		di := rQP.GetPoly()
		ev.embedDigit(ct.Value[1].Coeffs[i], i, di)
		rQP.NTT(di)
		digits[i] = di
	})
	return &DecomposedCiphertext{ct: ct, digits: digits, ctx: ctx}, nil
}

// Release returns the digit buffers (and the hoisted NTT(c0), if any
// rotation built it) to the rings' scratch pools. The
// DecomposedCiphertext must not be used afterwards.
func (dc *DecomposedCiphertext) Release() {
	for _, d := range dc.digits {
		dc.ctx.RingQP.PutPoly(d)
	}
	dc.digits = nil
	dc.ctx.RingQ.PutPoly(dc.c0NTT)
	dc.c0NTT = nil
}

// embedDigit embeds the i-th residue row of a mod-Q polynomial (an
// integer vector in [0, q_i)) into every residue of the QP basis. When
// q_i ≤ q_j the values are already reduced mod q_j and are copied
// verbatim; only smaller target moduli pay the reduction.
func (ev *Evaluator) embedDigit(src []uint64, i int, di *ring.Poly) {
	rQP := ev.ctx.RingQP
	qi := ev.ctx.RingQ.Moduli[i].Value
	for j, m := range rQP.Moduli {
		dst := di.Coeffs[j]
		if qi <= m.Value {
			copy(dst, src)
			continue
		}
		for k := range dst {
			dst[k] = m.Reduce(src[k])
		}
	}
}

// RotateRowsDecomposed rotates the two batched rows left by steps slots
// using the hoisted decomposition (negative steps rotate right). The
// result is byte-identical to RotateRows on the source ciphertext.
func (ev *Evaluator) RotateRowsDecomposed(dc *DecomposedCiphertext, steps int) (*Ciphertext, error) {
	if steps == 0 {
		return ev.ctx.CopyCt(dc.ct), nil
	}
	g := ev.ctx.RingQ.GaloisElementForRotation(steps)
	return ev.applyGaloisDecomposed(dc, g)
}

// RotateColumnsDecomposed swaps the two rows of the batching matrix
// using the hoisted decomposition.
func (ev *Evaluator) RotateColumnsDecomposed(dc *DecomposedCiphertext) (*Ciphertext, error) {
	return ev.applyGaloisDecomposed(dc, ev.ctx.RingQ.GaloisElementRowSwap())
}

// RotateRowsHoisted rotates one ciphertext by every step in steps,
// sharing a single decomposition across the whole batch and fanning the
// per-element key switches across the worker pool. Outputs are in step
// order and byte-identical to calling RotateRows once per step.
func (ev *Evaluator) RotateRowsHoisted(ct *Ciphertext, steps []int) ([]*Ciphertext, error) {
	dc, err := ev.Decompose(ct)
	if err != nil {
		return nil, err
	}
	defer dc.Release()
	outs := make([]*Ciphertext, len(steps))
	errs := make([]error, len(steps))
	par.For(len(steps), func(i int) {
		outs[i], errs[i] = ev.RotateRowsDecomposed(dc, steps[i])
	})
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return outs, nil
}

// applyGaloisDecomposed runs one Galois element over the hoisted
// digits: fused NTT-domain automorphism + inner product against that
// element's switching key, shared INTT, divide by P, and the (cheap,
// table-driven) coefficient-domain automorphism of c0. Safe for
// concurrent calls on the same DecomposedCiphertext — the digits are
// read-only and all scratch is call-local. The output polynomials are
// drawn from the ring scratch pool; callers that own the result
// outright can return them with Context.RecycleCt.
func (ev *Evaluator) applyGaloisDecomposed(dc *DecomposedCiphertext, g uint64) (*Ciphertext, error) {
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
	rQP.INTT(acc0)
	rQP.INTT(acc1)
	d0, d1 := ev.modDownByP(acc0), ev.modDownByP(acc1)
	rQP.PutPoly(acc0)
	rQP.PutPoly(acc1)

	c0 := rQ.GetPoly()
	rQ.Automorphism(dc.ct.Value[0], g, c0)
	rQ.Add(c0, d0, c0)
	rQ.PutPoly(d0)
	return &Ciphertext{Value: []*ring.Poly{c0, d1}}, nil
}
