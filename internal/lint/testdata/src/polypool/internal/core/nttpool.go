// Fixture for the polypool analyzer's resident resource: bfv's resident
// ciphertexts and rlwe's inner-sum accumulators hold pool polys and must
// reach RecycleNTT, RecycleNTTAccumulator or FromNTT on every exit path,
// or escape to an owner the analyzer can't see.
package core

import (
	"errors"

	"choco/internal/bfv"
	"choco/internal/ring"
)

// Leak: lifted into the NTT domain, multiplied, never handed back.
func neverRecycled(ctx *bfv.Context, ev *bfv.Evaluator, ct *bfv.Ciphertext, pm *bfv.PlaintextMul) (c0, c1 *ring.Poly) {
	x := ev.ToNTT(ct) // want `never reaches RecycleNTT or FromNTT`
	acc := ctx.NewNTTAccumulator(ctx.MaxLevel())
	ctx.MulPlainAcc(acc, x.Value, pm.NTT)
	return ctx.FromNTT(acc)
}

// Leak on one path: a later failure returns past the rotation.
func errorPathSkipsRecycle(ctx *bfv.Context, ev *bfv.Evaluator, dc *bfv.DecomposedCiphertext, pm *bfv.PlaintextMul, fail bool) (c0, c1 *ring.Poly, err error) {
	x, err := ev.RotateRowsLazyNTT(dc, 1) // want `does not reach RecycleNTT or FromNTT on every exit path`
	if err != nil {
		return nil, nil, err
	}
	if fail {
		return nil, nil, errors.New("bail")
	}
	acc := ctx.NewNTTAccumulator(ctx.MaxLevel())
	ctx.MulPlainAcc(acc, x.Value, pm.NTT)
	ev.RecycleNTT(x)
	c0, c1 = ctx.FromNTT(acc)
	return c0, c1, nil
}

// Leak: the accumulator is abandoned when the product is not wanted.
func accumulatorDropped(ctx *bfv.Context, ev *bfv.Evaluator, ct *bfv.Ciphertext, pm *bfv.PlaintextMul, want bool) (c0, c1 *ring.Poly) {
	x := ev.ToNTT(ct)
	defer ev.RecycleNTT(x)
	acc := ctx.NewNTTAccumulator(ctx.MaxLevel()) // want `does not reach RecycleNTT or FromNTT on every exit path`
	ctx.MulPlainAcc(acc, x.Value, pm.NTT)
	if !want {
		return nil, nil
	}
	c0, c1 = ctx.FromNTT(acc)
	return c0, c1
}

// The unwanted accumulator goes back unclosed.
func accumulatorRecycled(ctx *bfv.Context, ev *bfv.Evaluator, ct *bfv.Ciphertext, pm *bfv.PlaintextMul, want bool) (c0, c1 *ring.Poly) {
	x := ev.ToNTT(ct)
	defer ev.RecycleNTT(x)
	acc := ctx.NewNTTAccumulator(ctx.MaxLevel())
	ctx.MulPlainAcc(acc, x.Value, pm.NTT)
	if !want {
		ctx.RecycleNTTAccumulator(acc)
		return nil, nil
	}
	return ctx.FromNTT(acc)
}

// The failed acquisition's own error return owes nothing (x is nil
// there); every later exit is covered by the deferred recycle.
func fallibleThenDeferred(ctx *bfv.Context, ev *bfv.Evaluator, dc *bfv.DecomposedCiphertext, pm *bfv.PlaintextMul, fail bool) (c0, c1 *ring.Poly, err error) {
	x, err := ev.RotateRowsLazyNTT(dc, 1)
	if err != nil {
		return nil, nil, err
	}
	defer ev.RecycleNTT(x)
	if fail {
		return nil, nil, errors.New("bail")
	}
	acc := ctx.NewNTTAccumulator(ctx.MaxLevel())
	ctx.MulPlainAcc(acc, x.Value, pm.NTT)
	c0, c1 = ctx.FromNTT(acc)
	return c0, c1, nil
}

// FromNTT consumes the accumulator: its polys move into the result.
func consumedByFromNTT(ctx *bfv.Context, ev *bfv.Evaluator, ct *bfv.Ciphertext, pm *bfv.PlaintextMul) (c0, c1 *ring.Poly) {
	x := ev.ToNTT(ct)
	acc := ctx.NewNTTAccumulator(ctx.MaxLevel())
	ctx.MulPlainAcc(acc, x.Value, pm.NTT)
	ev.RecycleNTT(x)
	c0, c1 = ctx.FromNTT(acc)
	return c0, c1
}

// Escape by storage: the rotation table's owner recycles it later.
func escapesIntoTable(ev *bfv.Evaluator, ct *bfv.Ciphertext, table []*bfv.NTTCiphertext) {
	x := ev.ToNTT(ct)
	table[0] = x
}

// Escape by return: ownership moves to the caller.
func escapesByReturn(ev *bfv.Evaluator, ct *bfv.Ciphertext) *bfv.NTTCiphertext {
	x := ev.ToNTT(ct)
	return x
}
