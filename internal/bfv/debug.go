package bfv

import "fmt"

// debugCheckCt validates the chocodebug ciphertext invariants on each
// operand of an evaluator op (called only under rlwe.DebugEnabled): Drop
// lies in [0, MaxDrop], and the components are canonical polynomials of
// the ring at that drop (rlwe.Context.DebugCheck).
func (ctx *Context) debugCheckCt(op string, cts ...*Ciphertext) {
	for ci, ct := range cts {
		if ct == nil {
			panic(fmt.Sprintf("bfv: chocodebug: %s operand %d is nil", op, ci))
		}
		if ct.Drop < 0 || ct.Drop > ctx.MaxDrop() {
			panic(fmt.Sprintf("bfv: chocodebug: %s operand %d has drop %d outside [0,%d]", op, ci, ct.Drop, ctx.MaxDrop()))
		}
		ctx.DebugCheck(op, ci, ct.Value, ctx.MaxLevel()-ct.Drop)
	}
}
