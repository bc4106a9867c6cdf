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
		if bad := debugCheckRows(ctx.ringQl[level], p); bad != "" {
			panic(fmt.Sprintf("%s: chocodebug: %s operand %d component %d %s", ctx.label, op, ci, pi, bad))
		}
	}
}

// debugCheckRows returns "" when every row of p has N canonical residues
// of r's matching modulus, and otherwise what is wrong with the first row
// that does not. The caller names the polynomial, and only once there is
// something to report: a label formatted per check cost the hot paths
// four objects a call that the untagged build never allocated.
func debugCheckRows(r *ring.Ring, p *ring.Poly) string {
	for i, row := range p.Coeffs {
		if len(row) != r.N {
			return fmt.Sprintf("row %d has %d coefficients, want N=%d", i, len(row), r.N)
		}
		q := r.Moduli[i].Value
		for j, v := range row {
			if v >= q {
				return fmt.Sprintf("residue [%d][%d] = %d out of range mod %d", i, j, v, q)
			}
		}
	}
	return ""
}

// debugCheck asserts that the accumulator holds canonical residues and
// that the special-prime rows are fully drained (the lazy-accumulation
// invariant between Rotate calls).
func (qa *QPAccumulator) debugCheck(op string) {
	ctx := qa.ctx
	check := func(what string, h int, r *ring.Ring, p *ring.Poly) {
		if bad := debugCheckRows(r, p); bad != "" {
			panic(fmt.Sprintf("%s: chocodebug: %s %s %d %s", ctx.label, op, what, h, bad))
		}
	}
	for h := range qa.acc {
		check("accumulator", h, ctx.ringQlP[qa.level], qa.acc[h])
		for k, v := range qa.acc[h].Coeffs[qa.level+1] {
			if v != 0 {
				panic(fmt.Sprintf("%s: chocodebug: %s accumulator %d special-prime row not drained at [%d]", ctx.label, op, h, k))
			}
		}
		check("correction", h, ctx.ringQl[qa.level], qa.corr[h])
		check("plain sum", h, ctx.ringQl[qa.level], qa.plain[h])
	}
}
