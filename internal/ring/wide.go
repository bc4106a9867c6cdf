package ring

import (
	"fmt"
	"math/bits"
)

// WideAcc is a lazy dyadic multiply-accumulator over a ring: per
// coefficient, the running sum Σ aₖ·bₖ of full 128-bit products, kept
// unreduced. A chain of n terms pays n multiplies and n two-word adds
// plus one Barrett reduction at the end (ReduceWideAcc), where a chain of
// reduced MulCoeffs and Add pays n reductions; the reduced result is the
// same residue, so the two are byte-identical.
//
// The accumulator cannot overflow: products of canonical residues of a
// b-bit prime are below 2^(2b), so 2^(128−2b) of them fit, and
// MulCoeffsAddWide counts its terms and folds the sum back to a canonical
// residue (one term's worth) when the count is reached — every 64 terms
// for 61-bit primes, 1 024 for 59-bit ones, in practice never below that.
// The two word planes are polynomials of the ring's scratch pool: obtain
// with GetWideAcc, hand back with ReduceWideAcc or PutWideAcc.
type WideAcc struct {
	lo, hi *Poly
	// terms counts the products summed since the planes last held a
	// canonical residue (which itself counts as one).
	terms int
}

// wideTerms returns how many products of canonical residues a WideAcc
// over r can hold: 2^(128−2b) for r's widest prime.
func (r *Ring) wideTerms() int {
	b := 0
	for _, m := range r.Moduli {
		b = max(b, m.BitLen())
	}
	return 1 << min(128-2*b, 62)
}

// GetWideAcc returns an empty accumulator whose planes come from the
// ring's scratch pool.
func (r *Ring) GetWideAcc() *WideAcc {
	return &WideAcc{lo: r.GetPoly(), hi: r.GetPoly()}
}

// PutWideAcc returns an accumulator's planes to the scratch pool without
// reducing it. The accumulator must not be used afterwards.
func (r *Ring) PutWideAcc(acc *WideAcc) {
	r.PutPoly(acc.lo)
	r.PutPoly(acc.hi)
	acc.lo, acc.hi = nil, nil
}

// MulCoeffsAddWide sets acc += a ⊙ b without reducing: a and b are
// NTT-domain polynomials of this ring, with exactly its residue rows. On
// rings whose moduli are all below 2^51 it runs the AVX-512 IFMA kernel
// where the host has one (ifma_amd64.s): the same 128-bit sums, built
// from the product's two 52-bit halves. The chocodebug carry assertion
// lives in the scalar loop; an IFMA ring's accumulator holds at least
// 2^26 terms before it folds.
func (r *Ring) MulCoeffsAddWide(a, b *Poly, acc *WideAcc) {
	if !a.isNTT || !b.isNTT {
		panic("ring: MulCoeffsAddWide requires NTT-domain operands")
	}
	if debugEnabled {
		r.debugCheck("MulCoeffsAddWide", a, b)
		for pi, p := range []*Poly{a, b, acc.lo} {
			if len(p.Coeffs) != len(r.Moduli) {
				panic(fmt.Sprintf("ring: chocodebug: MulCoeffsAddWide operand %d has %d residue rows, the accumulator's ring %d",
					pi, len(p.Coeffs), len(r.Moduli)))
			}
		}
	}
	if acc.terms >= r.wideTerms() {
		r.foldWide(acc)
		r.Zero(acc.hi)
		acc.terms = 1
	}
	acc.terms++
	if r.useIFMA() {
		r.parRows(len(acc.lo.Coeffs), parMinCoeffwise, func(i int) {
			mulAddWideVector(acc.lo.Coeffs[i], acc.hi.Coeffs[i], a.Coeffs[i], b.Coeffs[i])
		})
		return
	}
	r.parRows(len(acc.lo.Coeffs), parMinCoeffwise, func(i int) {
		lo := acc.lo.Coeffs[i]
		hi := acc.hi.Coeffs[i][:len(lo)]
		ra, rb := a.Coeffs[i][:len(lo)], b.Coeffs[i][:len(lo)]
		for j := range lo {
			ph, pl := bits.Mul64(ra[j], rb[j])
			l, c := bits.Add64(lo[j], pl, 0)
			h, c := bits.Add64(hi[j], ph, c)
			if debugEnabled && c != 0 {
				panic(fmt.Sprintf("ring: chocodebug: MulCoeffsAddWide overflowed 128 bits at [%d][%d] after %d terms", i, j, acc.terms))
			}
			lo[j], hi[j] = l, h
		}
	})
}

// foldWide reduces every coefficient's (hi, lo) sum modulo its prime into
// the low plane; the high plane is left stale.
func (r *Ring) foldWide(acc *WideAcc) {
	r.parRows(len(acc.lo.Coeffs), parMinCoeffwise, func(i int) {
		m := r.Moduli[i]
		lo := acc.lo.Coeffs[i]
		hi := acc.hi.Coeffs[i][:len(lo)]
		for j := range lo {
			lo[j] = m.ReduceWide(hi[j], lo[j])
		}
	})
}

// ReduceWideAcc closes the accumulator: one Barrett reduction per
// coefficient. The result, an NTT-domain polynomial, is the low plane and
// so belongs to the ring's scratch pool like any GetPoly; the high plane
// goes back to it. Consumes acc.
func (r *Ring) ReduceWideAcc(acc *WideAcc) *Poly {
	r.foldWide(acc)
	out := acc.lo
	out.isNTT = true
	r.PutPoly(acc.hi)
	acc.lo, acc.hi = nil, nil
	return out
}
