package bfv

import (
	"fmt"

	"choco/internal/ring"
	"choco/internal/rlwe"
)

// The BFV front of the triple-hoisted key-switching ladder (DESIGN.md
// §13), whose machinery — the QP accumulator with its drained rounding
// corrections, the QP-resident rotation — and exactness argument live in
// internal/rlwe (accumulator.go, keyswitch.go). BFV runs all of it at the
// top level and adds the resident ciphertext form and the lazy
// accumulator its plaintext multiply-accumulate chains consume.

// NTTCiphertext is a degree-1 ciphertext resident in the key ring QP, in
// the NTT domain, scaled by P: the operand form of a multiply-accumulate
// chain (MulPlainAcc). A rotation arrives in it without having paid its
// divide-by-P (RotateRowsLazyNTT); an unrotated ciphertext is lifted into
// it with a zero special-prime row (ToNTT). Its polynomials come from the
// scratch pool of the ring it records.
type NTTCiphertext struct {
	Value []*ring.Poly // len 2, NTT domain over QP
	ring  *ring.Ring   // whose pool Value came from
}

// ToNTT lifts a full-modulus degree-1 ciphertext into the resident form
// (copying — ct is not modified): P·NTT(c) over QP, which divides by P
// exactly, so an inner sum made of lifted terms alone closes to the bytes
// of the MulPlain + Add chain on the ciphertexts themselves.
func (ev *Evaluator) ToNTT(ct *Ciphertext) *NTTCiphertext {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("ToNTT", ct)
	}
	if len(ct.Value) != 2 || ct.Drop != 0 {
		panic("bfv: ToNTT requires a degree-1 full-modulus ciphertext")
	}
	out := &NTTCiphertext{Value: make([]*ring.Poly, 2), ring: ev.ctx.RingQP}
	for i, p := range ct.Value {
		out.Value[i] = ev.ctx.LiftNTT(ev.ctx.MaxLevel(), p)
	}
	return out
}

// NTTAccumulator is the running sum of a MulPlainAcc chain: per component
// and coefficient, the unreduced 128-bit sum of the products so far over
// QP (ring.WideAcc, which reduces by itself before it could overflow).
// Obtain with NewNTTAccumulator; close with FromNTT or discard with
// RecycleNTTAccumulator.
type NTTAccumulator struct {
	acc [2]*ring.WideAcc
}

// NewNTTAccumulator returns an empty accumulator for MulPlainAcc chains,
// its word planes drawn from the key ring's scratch pool.
func (ev *Evaluator) NewNTTAccumulator() *NTTAccumulator {
	rQP := ev.ctx.RingQP
	return &NTTAccumulator{acc: [2]*ring.WideAcc{rQP.GetWideAcc(), rQP.GetWideAcc()}}
}

// MulPlainAcc accumulates acc += x ⊙ pm over QP without reducing.
func (ev *Evaluator) MulPlainAcc(acc *NTTAccumulator, x *NTTCiphertext, pm *PlaintextMul) {
	rQP := ev.ctx.RingQP
	if rlwe.DebugEnabled {
		if x.ring != rQP {
			panic("bfv: chocodebug: MulPlainAcc ciphertext operand is not resident in the key ring QP")
		}
		if len(pm.NTT.Coeffs) != len(rQP.Moduli) {
			panic(fmt.Sprintf("bfv: chocodebug: MulPlainAcc plaintext has %d residue rows, the key ring QP %d", len(pm.NTT.Coeffs), len(rQP.Moduli)))
		}
	}
	for i, a := range acc.acc {
		rQP.MulCoeffsAddWide(x.Value[i], pm.NTT, a)
	}
}

// FromNTT closes the chain: one reduction of the accumulated sum, one
// inverse NTT per row and one divide-by-P with rounding — the only
// rounding the whole inner sum pays. The result is a regular
// coefficient-domain ciphertext mod Q; acc is consumed.
func (ev *Evaluator) FromNTT(acc *NTTAccumulator) *Ciphertext {
	rQP := ev.ctx.RingQP
	c0, c1 := ev.ctx.ModDownPair(ev.ctx.MaxLevel(), rQP.ReduceWideAcc(acc.acc[0]), rQP.ReduceWideAcc(acc.acc[1]))
	return &Ciphertext{Value: []*ring.Poly{c0, c1}}
}

// RecycleNTTAccumulator returns an accumulator's buffers to the scratch
// pool without closing it.
func (ev *Evaluator) RecycleNTTAccumulator(acc *NTTAccumulator) {
	for _, a := range acc.acc {
		ev.ctx.RingQP.PutWideAcc(a)
	}
}

// Recycle returns an NTT ciphertext's buffers to the scratch pool they
// came from.
func (nc *NTTCiphertext) Recycle() {
	for _, p := range nc.Value {
		nc.ring.PutPoly(p)
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
func (ev *Evaluator) RecycleNTT(nc *NTTCiphertext) { nc.Recycle() }

// RotateRowsLazyNTT rotates the decomposed ciphertext by steps and
// returns the result resident in QP, its divide-by-P still owed
// (rlwe.Decomposed.RotateNTT): closed on its own it is
// RotateRowsDecomposed(dc, steps) byte for byte, and a MulPlainAcc chain
// of such rotations pays one rounding for the whole sum.
func (ev *Evaluator) RotateRowsLazyNTT(dc *DecomposedCiphertext, steps int) (*NTTCiphertext, error) {
	if steps == 0 {
		return ev.ToNTT(dc.ct), nil
	}
	gk, err := ev.ctx.GaloisKey(ev.galois, ev.ctx.RingQ.GaloisElementForRotation(steps))
	if err != nil {
		return nil, err
	}
	c0, c1 := dc.RotateNTT(gk)
	return &NTTCiphertext{Value: []*ring.Poly{c0, c1}, ring: ev.ctx.RingQP}, nil
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
