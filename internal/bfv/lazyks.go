package bfv

import (
	"fmt"

	"choco/internal/ring"
	"choco/internal/rlwe"
)

// The BFV front of the triple-hoisted key-switching ladder (DESIGN.md
// §13), whose machinery — the QP accumulator with its drained rounding
// corrections, the NTT-domain mod-down — and exactness argument live in
// internal/rlwe (accumulator.go, keyswitch.go). BFV runs all of it at the
// top level and adds the NTT-resident ciphertext form its plaintext
// multiply-accumulate chains consume.

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
	if rlwe.DebugEnabled {
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

// RecycleCt returns a ciphertext's component buffers to the scratch pool
// of the data ring at its level. Only for ciphertexts the caller owns
// outright (kernel intermediates, replies already marshalled); the
// ciphertext must not be used afterwards.
func (ctx *Context) RecycleCt(ct *Ciphertext) {
	r := ctx.RingAtDrop(ct.Drop)
	for _, p := range ct.Value {
		r.PutPoly(p)
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
// ever materializing the coefficient-domain rotation
// (rlwe.Decomposed.RotateNTT).
func (ev *Evaluator) RotateRowsLazyNTT(dc *DecomposedCiphertext, steps int) (*NTTCiphertext, error) {
	if steps == 0 {
		return ev.ToNTT(dc.ct), nil
	}
	gk, err := ev.ctx.GaloisKey(ev.galois, ev.ctx.RingQ.GaloisElementForRotation(steps))
	if err != nil {
		return nil, err
	}
	c0, c1 := dc.RotateNTT(gk)
	return &NTTCiphertext{Value: []*ring.Poly{c0, c1}}, nil
}

// QPAccumulator sums the key-switch products of many Galois elements in
// the extended basis QP so the whole sum pays a single INTT + mod-down
// (FinalizeModDown) instead of one per element. Obtain with
// NewQPAccumulator; feed with AccumulateQP (lazy rotations) and AddLazy
// (unrotated terms); combine per-worker partials with Merge.
type QPAccumulator = rlwe.QPAccumulator

// NewQPAccumulator returns an empty accumulator drawing its six
// polynomials from the ring scratch pools. Release or FinalizeModDown
// it when done.
func (ev *Evaluator) NewQPAccumulator() *QPAccumulator {
	return ev.ctx.NewQPAccumulator(ev.ctx.MaxLevel())
}

// AddLazy folds a full-modulus degree-1 ciphertext into the
// accumulator without any key switch (the i = 0 giant step, or any
// already-aligned term).
func (ev *Evaluator) AddLazy(qa *QPAccumulator, ct *Ciphertext) error {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("AddLazy", ct)
	}
	if len(ct.Value) != 2 || ct.Drop != 0 {
		return fmt.Errorf("bfv: AddLazy requires a degree-1 full-modulus ciphertext")
	}
	qa.Add(ct.Value)
	return nil
}

// AccumulateQP applies one lazy rotation of the decomposed ciphertext
// (rlwe.QPAccumulator.Rotate): no full INTT, no mod-down — the whole
// accumulated sum pays those once, in FinalizeModDown.
func (ev *Evaluator) AccumulateQP(qa *QPAccumulator, dc *DecomposedCiphertext, steps int) error {
	if steps == 0 {
		return ev.AddLazy(qa, dc.ct)
	}
	gk, err := ev.ctx.GaloisKey(ev.galois, ev.ctx.RingQ.GaloisElementForRotation(steps))
	if err != nil {
		return err
	}
	qa.Rotate(&dc.Decomposed, gk)
	return nil
}

// FinalizeModDown closes the accumulator; the result is byte-identical to
// rotating every element individually and Add-folding the outputs.
// Consumes the accumulator.
func (ev *Evaluator) FinalizeModDown(qa *QPAccumulator) *Ciphertext {
	c0, c1 := qa.FinalizeModDown()
	return &Ciphertext{Value: []*ring.Poly{c0, c1}}
}
