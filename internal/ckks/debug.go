package ckks

import "fmt"

// debugCheckCt validates the chocodebug ciphertext invariants on each
// operand of an evaluator op (called only under rlwe.DebugEnabled): the
// components are canonical polynomials of the ring at the operand's
// level (rlwe.Context.DebugCheck).
func (ctx *Context) debugCheckCt(op string, cts ...*Ciphertext) {
	for ci, ct := range cts {
		if ct == nil {
			panic(fmt.Sprintf("ckks: chocodebug: %s operand %d is nil", op, ci))
		}
		ctx.DebugCheck(op, ci, ct.Value, ct.Level)
	}
}
