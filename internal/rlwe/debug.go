package rlwe

import (
	"fmt"

	"choco/internal/ring"
)

// The chocodebug assertions of both schemes, keyed on level. They are
// ordinary functions called only under `if DebugEnabled`.

// DebugCheck validates operand ci of evaluator op — a ciphertext's
// components at the given level:
//
//   - the level lies in [0, MaxLevel];
//   - every component polynomial has exactly the residue rows of the
//     ring at that level, each row of length N;
//   - every residue lies in [0, q_i).
func (ctx *Context) DebugCheck(op string, ci int, value []*ring.Poly, level int) {
	if level < 0 || level > ctx.MaxLevel() {
		panic(fmt.Sprintf("%s: chocodebug: %s operand %d has level %d outside [0,%d]", ctx.label, op, ci, level, ctx.MaxLevel()))
	}
	for pi, p := range value {
		if p == nil {
			panic(fmt.Sprintf("%s: chocodebug: %s operand %d component %d is nil", ctx.label, op, ci, pi))
		}
		if len(p.Coeffs) != level+1 {
			panic(fmt.Sprintf("%s: chocodebug: %s operand %d component %d has %d residue rows, level %d implies %d",
				ctx.label, op, ci, pi, len(p.Coeffs), level, level+1))
		}
		debugCheckRows(ctx.label, fmt.Sprintf("%s operand %d component %d", op, ci, pi), ctx.ringQl[level], p)
	}
}

// debugCheckRows panics unless every row of p has N canonical residues of
// r's matching modulus.
func debugCheckRows(label, what string, r *ring.Ring, p *ring.Poly) {
	for i, row := range p.Coeffs {
		if len(row) != r.N {
			panic(fmt.Sprintf("%s: chocodebug: %s row %d has %d coefficients, want N=%d", label, what, i, len(row), r.N))
		}
		q := r.Moduli[i].Value
		for j, v := range row {
			if v >= q {
				panic(fmt.Sprintf("%s: chocodebug: %s residue [%d][%d] = %d out of range mod %d", label, what, i, j, v, q))
			}
		}
	}
}

// debugCheck asserts that the accumulator holds canonical residues and
// that the special-prime rows are fully drained (the lazy-accumulation
// invariant between Rotate calls).
func (qa *QPAccumulator) debugCheck(op string) {
	ctx := qa.ctx
	for h := range qa.acc {
		debugCheckRows(ctx.label, fmt.Sprintf("%s accumulator %d", op, h), ctx.ringQlP[qa.level], qa.acc[h])
		for k, v := range qa.acc[h].Coeffs[qa.level+1] {
			if v != 0 {
				panic(fmt.Sprintf("%s: chocodebug: %s accumulator %d special-prime row not drained at [%d]", ctx.label, op, h, k))
			}
		}
		debugCheckRows(ctx.label, fmt.Sprintf("%s correction %d", op, h), ctx.ringQl[qa.level], qa.corr[h])
		debugCheckRows(ctx.label, fmt.Sprintf("%s plain sum %d", op, h), ctx.ringQl[qa.level], qa.plain[h])
	}
}
