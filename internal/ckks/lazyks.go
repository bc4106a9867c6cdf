package ckks

import (
	"fmt"

	"choco/internal/ring"
	"choco/internal/rlwe"
)

// The CKKS front of the triple-hoisted key-switching ladder (DESIGN.md
// §13): rlwe.QPAccumulator, carried out at a fixed ciphertext level over
// the (q0..ql, p) basis, plus the scale bookkeeping the core knows
// nothing about. The exactness argument lives with the accumulator.

// QPAccumulator sums the key-switch products of many Galois elements
// of same-level, same-scale ciphertexts. Obtain with NewQPAccumulator,
// feed with AccumulateQP / AddLazy, combine worker partials with Merge,
// close with FinalizeModDown.
type QPAccumulator struct {
	*rlwe.QPAccumulator

	// scale of the accumulated terms: fixed by the first contribution,
	// checked against every later one (as Add does); terms counts them.
	scale float64
	terms int
}

// NewQPAccumulator returns an empty lazy accumulator for ciphertexts
// at the given level, drawing its buffers from the level rings' pools.
func (ev *Evaluator) NewQPAccumulator(level int) (*QPAccumulator, error) {
	if level < 0 || level > ev.ctx.MaxLevel() {
		return nil, fmt.Errorf("ckks: accumulator level %d out of range", level)
	}
	return &QPAccumulator{QPAccumulator: ev.ctx.NewQPAccumulator(level)}, nil
}

// noteScale records terms more contributions of scale s: the first fixes
// the accumulator's scale, every later one is checked against it.
func (qa *QPAccumulator) noteScale(s float64, terms int) error {
	switch {
	case terms == 0:
		return nil
	case qa.terms == 0:
		qa.scale = s
	case !scalesMatch(qa.scale, s):
		return fmt.Errorf("ckks: scale mismatch %g vs %g in lazy accumulation", qa.scale, s)
	}
	qa.terms += terms
	return nil
}

// AddLazy folds a degree-1 ciphertext at the accumulator's level into
// the plain sum, no key switch.
func (ev *Evaluator) AddLazy(qa *QPAccumulator, ct *Ciphertext) error {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("AddLazy", ct)
	}
	if len(ct.Value) != 2 {
		return fmt.Errorf("ckks: AddLazy requires a degree-1 ciphertext")
	}
	if ct.Level != qa.Level() {
		return fmt.Errorf("ckks: level mismatch %d vs %d", ct.Level, qa.Level())
	}
	if err := qa.noteScale(ct.Scale, 1); err != nil {
		return err
	}
	qa.Add(ct.Value)
	return nil
}

// AccumulateQP applies one lazy rotation of the decomposed ciphertext
// (rlwe.QPAccumulator.Rotate). The full inverse NTT and divide-by-P are
// deferred to FinalizeModDown.
func (ev *Evaluator) AccumulateQP(qa *QPAccumulator, dc *DecomposedCiphertext, steps int) error {
	if steps == 0 {
		return ev.AddLazy(qa, dc.ct)
	}
	if dc.Level() != qa.Level() {
		return fmt.Errorf("ckks: level mismatch %d vs %d", dc.Level(), qa.Level())
	}
	gk, err := ev.ctx.GaloisKey(ev.galois, ev.ctx.GaloisElementForRotation(steps))
	if err != nil {
		return err
	}
	if err := qa.noteScale(dc.ct.Scale, 1); err != nil {
		return err
	}
	qa.Rotate(&dc.Decomposed, gk)
	return nil
}

// Merge folds other (same level) into qa and releases other. Worker
// partials over disjoint element subsets merge to the same bytes as a
// serial accumulator — every field is a plain modular sum.
func (qa *QPAccumulator) Merge(other *QPAccumulator) error {
	if qa.Level() != other.Level() {
		return fmt.Errorf("ckks: merging accumulators at levels %d and %d", qa.Level(), other.Level())
	}
	if err := qa.noteScale(other.scale, other.terms); err != nil {
		return err
	}
	qa.QPAccumulator.Merge(other.QPAccumulator)
	return nil
}

// FinalizeModDown closes the accumulator; the result is byte-identical
// to rotating every element individually and Add-folding the outputs.
// Consumes the accumulator.
func (ev *Evaluator) FinalizeModDown(qa *QPAccumulator) *Ciphertext {
	level := qa.Level()
	c0, c1 := qa.QPAccumulator.FinalizeModDown()
	return &Ciphertext{Value: []*ring.Poly{c0, c1}, Level: level, Scale: qa.scale}
}

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
	qa, err := ev.NewQPAccumulator(ct.Level)
	if err != nil {
		return nil, err
	}
	for _, s := range steps {
		if err := ev.AccumulateQP(qa, dc, s); err != nil {
			qa.Release()
			return nil, err
		}
	}
	return ev.FinalizeModDown(qa), nil
}
