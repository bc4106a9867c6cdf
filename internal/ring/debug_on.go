//go:build chocodebug

package ring

import "fmt"

// debugEnabled turns on the chocodebug assertion layer: every ring
// operation validates its operands before computing, so silent
// coefficient corruption becomes an immediate panic at the first op
// that touches the bad polynomial instead of garbage after decryption.
const debugEnabled = true

// debugCheck validates the chocodebug invariants on each operand of a
// ring operation:
//
//   - the operand's RNS level fits the ring (no more residue rows than
//     the ring has moduli);
//   - every residue row holds exactly N coefficients;
//   - every residue lies in [0, q_i).
//
// A violation means the polynomial was corrupted before this call — an
// out-of-thin-air write, a poly built against the wrong ring, or a
// buffer reused across levels.
func (r *Ring) debugCheck(op string, ps ...*Poly) {
	for pi, p := range ps {
		if p == nil {
			panic(fmt.Sprintf("ring: chocodebug: %s operand %d is nil", op, pi))
		}
		if len(p.Coeffs) > len(r.Moduli) {
			panic(fmt.Sprintf("ring: chocodebug: %s operand %d has %d residue rows, ring has %d moduli",
				op, pi, len(p.Coeffs), len(r.Moduli)))
		}
		for i, row := range p.Coeffs {
			if len(row) != r.N {
				panic(fmt.Sprintf("ring: chocodebug: %s operand %d row %d has %d coefficients, want N=%d",
					op, pi, i, len(row), r.N))
			}
			q := r.Moduli[i].Value
			for j, v := range row {
				if v >= q {
					panic(fmt.Sprintf("ring: chocodebug: %s operand %d residue [%d][%d] = %d out of range mod %d",
						op, pi, i, j, v, q))
				}
			}
		}
	}
}

// debugCheckRow validates one residue row handed to a row transform:
// N coefficients, each in [0, q_lvl). The IFMA stages multiply only a
// lane's low 52 bits, so an unreduced lane would come out a wrong
// residue rather than a congruent one.
func (r *Ring) debugCheckRow(op string, lvl int, row []uint64) {
	if len(row) != r.N {
		panic(fmt.Sprintf("ring: chocodebug: %s row %d has %d coefficients, want N=%d", op, lvl, len(row), r.N))
	}
	q := r.Moduli[lvl].Value
	for j, v := range row {
		if v >= q {
			panic(fmt.Sprintf("ring: chocodebug: %s row %d residue [%d] = %d out of range mod %d", op, lvl, j, v, q))
		}
	}
}
