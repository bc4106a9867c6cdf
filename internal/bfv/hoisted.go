package bfv

import (
	"fmt"

	"choco/internal/par"
	"choco/internal/ring"
	"choco/internal/rlwe"
)

// DecomposedCiphertext is the hoisted (Halevi–Shoup) form of a degree-1
// full-modulus ciphertext: rlwe.Decomposed (the per-data-prime RNS digits
// of c1 over QP, forward-NTT-transformed once) with the ciphertext it came
// from. Obtain with Evaluator.Decompose, rotate with RotateRowsDecomposed
// or RotateRowsLazyNTT, and call Release when done.
type DecomposedCiphertext struct {
	rlwe.Decomposed
	ct *Ciphertext
}

// Decompose performs the per-residue embedding and forward NTTs of
// ct's c1 once, returning the hoisted state shared by all subsequent
// rotations of ct. The ciphertext must be degree 1 at full modulus.
// The returned value references ct (it is not copied); it is safe for
// concurrent use by multiple rotations once built.
func (ev *Evaluator) Decompose(ct *Ciphertext) (*DecomposedCiphertext, error) {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("Decompose", ct)
	}
	if len(ct.Value) != 2 {
		return nil, fmt.Errorf("bfv: rotation requires a degree-1 ciphertext")
	}
	if ct.Drop != 0 {
		return nil, fmt.Errorf("bfv: rotation requires a full-modulus ciphertext")
	}
	dc := &DecomposedCiphertext{ct: ct}
	ev.ctx.Decompose(&dc.Decomposed, ct.Value, ev.ctx.MaxLevel())
	return dc, nil
}

// RotateRowsDecomposed rotates the two batched rows left by steps slots
// using the hoisted decomposition (negative steps rotate right). The
// result is byte-identical to RotateRows on the source ciphertext.
func (ev *Evaluator) RotateRowsDecomposed(dc *DecomposedCiphertext, steps int) (*Ciphertext, error) {
	if steps == 0 {
		return ev.ctx.CopyCt(dc.ct), nil
	}
	gk, err := ev.RotationKey(steps)
	if err != nil {
		return nil, err
	}
	return ev.applyGaloisDecomposed(dc, gk), nil
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

// applyGaloisDecomposed runs one Galois key over the hoisted digits
// (rlwe.Decomposed.Rotate). The output polynomials are drawn from the
// ring scratch pool; callers that own the result outright can return
// them with Context.RecycleCt.
func (ev *Evaluator) applyGaloisDecomposed(dc *DecomposedCiphertext, gk *GaloisKey) *Ciphertext {
	c0, c1 := dc.Rotate(gk)
	return &Ciphertext{Value: []*ring.Poly{c0, c1}}
}
