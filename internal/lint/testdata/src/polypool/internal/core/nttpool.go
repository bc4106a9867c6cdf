// Fixture for the polypool analyzer's bfv resource: the resident
// ciphertexts and accumulators handed out by the evaluator hold pool polys
// and must reach RecycleNTT, RecycleNTTAccumulator or FromNTT on every
// exit path, or escape to an owner the analyzer can't see.
package core

import (
	"errors"

	"choco/internal/bfv"
)

// Leak: lifted into the NTT domain, multiplied, never handed back.
func neverRecycled(ev *bfv.Evaluator, ct *bfv.Ciphertext, pm *bfv.PlaintextMul) *bfv.Ciphertext {
	x := ev.ToNTT(ct) // want `never reaches RecycleNTT or FromNTT`
	acc := ev.NewNTTAccumulator()
	ev.MulPlainAcc(acc, x, pm)
	return ev.FromNTT(acc)
}

// Leak on one path: a later failure returns past the rotation.
func errorPathSkipsRecycle(ev *bfv.Evaluator, dc *bfv.DecomposedCiphertext, pm *bfv.PlaintextMul, fail bool) (*bfv.Ciphertext, error) {
	x, err := ev.RotateRowsLazyNTT(dc, 1) // want `does not reach RecycleNTT or FromNTT on every exit path`
	if err != nil {
		return nil, err
	}
	if fail {
		return nil, errors.New("bail")
	}
	acc := ev.NewNTTAccumulator()
	ev.MulPlainAcc(acc, x, pm)
	ev.RecycleNTT(x)
	return ev.FromNTT(acc), nil
}

// Leak: the accumulator is abandoned when the product is not wanted.
func accumulatorDropped(ev *bfv.Evaluator, ct *bfv.Ciphertext, pm *bfv.PlaintextMul, want bool) *bfv.Ciphertext {
	x := ev.ToNTT(ct)
	defer ev.RecycleNTT(x)
	acc := ev.NewNTTAccumulator() // want `does not reach RecycleNTT or FromNTT on every exit path`
	ev.MulPlainAcc(acc, x, pm)
	if !want {
		return nil
	}
	out := ev.FromNTT(acc)
	return out
}

// The unwanted accumulator goes back unclosed.
func accumulatorRecycled(ev *bfv.Evaluator, ct *bfv.Ciphertext, pm *bfv.PlaintextMul, want bool) *bfv.Ciphertext {
	x := ev.ToNTT(ct)
	defer ev.RecycleNTT(x)
	acc := ev.NewNTTAccumulator()
	ev.MulPlainAcc(acc, x, pm)
	if !want {
		ev.RecycleNTTAccumulator(acc)
		return nil
	}
	return ev.FromNTT(acc)
}

// The failed acquisition's own error return owes nothing (x is nil
// there); every later exit is covered by the deferred recycle.
func fallibleThenDeferred(ev *bfv.Evaluator, dc *bfv.DecomposedCiphertext, pm *bfv.PlaintextMul, fail bool) (*bfv.Ciphertext, error) {
	x, err := ev.RotateRowsLazyNTT(dc, 1)
	if err != nil {
		return nil, err
	}
	defer ev.RecycleNTT(x)
	if fail {
		return nil, errors.New("bail")
	}
	acc := ev.NewNTTAccumulator()
	ev.MulPlainAcc(acc, x, pm)
	return ev.FromNTT(acc), nil
}

// FromNTT consumes the accumulator: its polys move into the result.
func consumedByFromNTT(ev *bfv.Evaluator, ct *bfv.Ciphertext, pm *bfv.PlaintextMul) *bfv.Ciphertext {
	x := ev.ToNTT(ct)
	acc := ev.NewNTTAccumulator()
	ev.MulPlainAcc(acc, x, pm)
	ev.RecycleNTT(x)
	out := ev.FromNTT(acc)
	return out
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
