package ckks

import (
	"fmt"

	"choco/internal/ring"
)

// The CKKS front of the triple-hoisted key-switching ladder (DESIGN.md
// §13) is one function. Every term of a rotation sum comes from one
// ciphertext and shares its level and scale, so rlwe.QPAccumulator,
// which carries the sum over the (q0..ql, p) basis, needs no scale
// bookkeeping around it. The exactness argument lives with the
// accumulator.

// RotateSumLazy computes Σ_s rotate(ct, s) over the given steps with
// one decomposition, one accumulated inner product, and one shared
// mod-down — byte-identical to rotating per step (hoisted or not) and
// folding the results with Add in step order. A step of 0 contributes
// ct itself. This is the rotation-sum shape of slot reductions and
// inner-product collapses.
func (ev *Evaluator) RotateSumLazy(ct *Ciphertext, steps []int) (*Ciphertext, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("ckks: RotateSumLazy of zero steps")
	}
	dc, err := ev.Decompose(ct)
	if err != nil {
		return nil, err
	}
	defer dc.Release()
	qa := ev.ctx.NewQPAccumulator(ct.Level)
	for _, s := range steps {
		if s == 0 {
			qa.Add(ct.Value)
			continue
		}
		gk, err := ev.RotationKey(s)
		if err != nil {
			qa.Release()
			return nil, err
		}
		qa.Rotate(&dc.Decomposed, gk)
	}
	c0, c1 := qa.FinalizeModDown()
	return &Ciphertext{Value: []*ring.Poly{c0, c1}, Level: ct.Level, Scale: ct.Scale}, nil
}
