package ckks

import (
	"fmt"

	"choco/internal/par"
	"choco/internal/ring"
	"choco/internal/rlwe"
)

// DecomposedCiphertext is the hoisted (Halevi–Shoup) form of a degree-1
// ciphertext at some level: rlwe.Decomposed (the per-prime RNS digits of
// c1 over (q0..ql, p), forward-NTT-transformed once) with the ciphertext
// it came from. A batch of k rotations of the same ciphertext then pays
// one decomposition instead of k. Obtain with Evaluator.Decompose, rotate
// with RotateLeftDecomposed, and call Release when done.
type DecomposedCiphertext struct {
	rlwe.Decomposed
	ct *Ciphertext
}

// Decompose performs the per-residue embedding and forward NTTs of
// ct's c1 once at ct's level. The returned value references ct; it is
// safe for concurrent use by multiple rotations once built.
func (ev *Evaluator) Decompose(ct *Ciphertext) (*DecomposedCiphertext, error) {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("Decompose", ct)
	}
	if len(ct.Value) != 2 {
		return nil, fmt.Errorf("ckks: rotation requires degree 1")
	}
	dc := &DecomposedCiphertext{ct: ct}
	ev.ctx.Decompose(&dc.Decomposed, ct.Value, ct.Level)
	return dc, nil
}

// RotateLeftDecomposed rotates slots left by steps using the hoisted
// decomposition (negative = right). Byte-identical to RotateLeft on the
// source ciphertext.
func (ev *Evaluator) RotateLeftDecomposed(dc *DecomposedCiphertext, steps int) (*Ciphertext, error) {
	if steps == 0 {
		return ev.ctx.CopyCt(dc.ct), nil
	}
	return ev.applyGaloisDecomposed(dc, ev.ctx.GaloisElementForRotation(steps))
}

// RotateLeftHoisted rotates one ciphertext by every step in steps,
// sharing a single decomposition and fanning the per-element key
// switches across the worker pool. Outputs are in step order and
// byte-identical to calling RotateLeft once per step.
func (ev *Evaluator) RotateLeftHoisted(ct *Ciphertext, steps []int) ([]*Ciphertext, error) {
	dc, err := ev.Decompose(ct)
	if err != nil {
		return nil, err
	}
	defer dc.Release()
	outs := make([]*Ciphertext, len(steps))
	errs := make([]error, len(steps))
	par.For(len(steps), func(i int) {
		outs[i], errs[i] = ev.RotateLeftDecomposed(dc, steps[i])
	})
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return outs, nil
}

// applyGaloisDecomposed runs one Galois element over the hoisted digits
// (rlwe.Decomposed.Rotate). The output polynomials are drawn from the
// level ring's scratch pool.
func (ev *Evaluator) applyGaloisDecomposed(dc *DecomposedCiphertext, g uint64) (*Ciphertext, error) {
	gk, err := ev.ctx.GaloisKey(ev.galois, g)
	if err != nil {
		return nil, err
	}
	c0, c1 := dc.Rotate(gk)
	return &Ciphertext{Value: []*ring.Poly{c0, c1}, Level: dc.ct.Level, Scale: dc.ct.Scale}, nil
}
