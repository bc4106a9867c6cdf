package bfv

import (
	"fmt"

	"choco/internal/ring"
)

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

// debugCheckPlainQ validates the plaintext operand of a product over Q
// (called only under rlwe.DebugEnabled): it is present, NTT-domain, and a
// canonical polynomial of the full data ring.
func (ctx *Context) debugCheckPlainQ(op string, p *ring.Poly) {
	if p == nil {
		panic(fmt.Sprintf("bfv: chocodebug: %s plaintext is nil", op))
	}
	if !p.IsNTT {
		panic(fmt.Sprintf("bfv: chocodebug: %s plaintext is in the coefficient domain, want NTT", op))
	}
	ctx.DebugCheck(op, 1, []*ring.Poly{p}, ctx.MaxLevel())
}
