//go:build amd64 && !purego

package ring

import (
	"math/bits"

	"choco/internal/cpu"
	"choco/internal/nt"
)

// vectorAvailable reports hardware support for the AVX2 ring kernels,
// decided once by CPUID at init.
func vectorAvailable() bool { return cpu.X86.HasAVX2 }

// ifmaAvailable reports hardware support for the AVX-512 IFMA kernels
// (ifma_amd64.s), decided once by CPUID at init. It also needs AVX2,
// without which vectorKernels, their run-time switch, stays off.
func ifmaAvailable() bool { return cpu.X86.HasAVX2 && cpu.X86.HasAVX512IFMA }

//go:noescape
func nttFwdStageAVX2(p, psi, psiS *uint64, q uint64, m, t int)

//go:noescape
func nttFwdT2AVX2(p, psi, psiS *uint64, q uint64, m int)

//go:noescape
func nttFwdT1AVX2(p, psi, psiS *uint64, q uint64, m int)

//go:noescape
func nttInvStageAVX2(p, psi, psiS *uint64, q uint64, h, t int)

//go:noescape
func nttInvT2AVX2(p, psi, psiS *uint64, q uint64, h int)

//go:noescape
func nttInvT1AVX2(p, psi, psiS *uint64, q uint64, h int)

//go:noescape
func nttInvFinalAVX2(p *uint64, q, nInv, nInvS, nInvPsi, nInvPsiS uint64, half int)

//go:noescape
func mulModVecAVX2(ro, ra, rb *uint64, q, bHi, bLo uint64, n int)

//go:noescape
func nttFwdStageIFMA(p, psi, psiS *uint64, q uint64, m, t int)

//go:noescape
func nttInvStageIFMA(p, psi, psiS *uint64, q uint64, h, t int)

//go:noescape
func nttFwdTailIFMA(p, psi, psiS *uint64, q uint64, steps int, perm *tailPerm, step int)

//go:noescape
func nttInvTailIFMA(p, psi, psiS *uint64, q uint64, steps int, perm *tailPerm, step int)

//go:noescape
func nttInvFinalIFMA(p *uint64, q, nInv, nInvS, nInvPsi, nInvPsiS uint64, half int)

//go:noescape
func autoMulShoupAdd2IFMA(ro0, ro1, ra, perm, rb0, rs0, rb1, rs1 *uint64, q uint64, n int)

//go:noescape
func mulAddWideIFMA(lo, hi, ra, rb *uint64, n int)

//go:noescape
func mulShoupIFMA(ro, ra, rb, rs *uint64, q uint64, n int)

// nttForwardVec runs the forward transform through the vector stage
// kernels: the IFMA ones where the table selected them
// (nttTable.useIFMA), the AVX2 ones otherwise. Each stage is the same
// eager Cooley-Tukey butterfly sweep as the scalar loop, every lane
// canonical after every stage, so the result is bit-identical, not
// merely congruent. Returns false (caller runs scalar) when disabled or
// when the ring is too small to fill a vector (n < 8).
func nttForwardVec(tbl *nttTable, a []uint64) bool {
	n := len(a)
	if !vectorKernels || n < 8 {
		return false
	}
	if tbl.useIFMA() {
		nttForwardIFMA(tbl, a)
		return true
	}
	q := tbl.mod.Value
	t := n
	for m := 1; m < n; m <<= 1 {
		t >>= 1
		switch {
		case t >= 4:
			nttFwdStageAVX2(&a[0], &tbl.psiRev[m], &tbl.psiRevShoup[m], q, m, t)
		case t == 2:
			nttFwdT2AVX2(&a[0], &tbl.psiRev[m], &tbl.psiRevShoup[m], q, m)
		default:
			nttFwdT1AVX2(&a[0], &tbl.psiRev[m], &tbl.psiRevShoup[m], q, m)
		}
		if debugEnabled {
			assertRowBound("nttForwardVec stage", a, q)
		}
	}
	return true
}

// nttInverseVec runs the inverse transform through the vector stage
// kernels (IFMA or AVX2, as for nttForwardVec), replicating the scalar
// loop's Harvey lazy-reduction schedule: lanes live in [0, 2q) between
// stages and the final folded-scaling half-stage restores canonical
// [0, q). The lazy lanes of a stage need not equal the scalar loop's
// (an IFMA quotient estimate may land on the other representative below
// 2q), but the canonical output is the one residue congruent to both.
func nttInverseVec(tbl *nttTable, a []uint64) bool {
	n := len(a)
	if !vectorKernels || n < 8 {
		return false
	}
	if tbl.useIFMA() {
		nttInverseIFMA(tbl, a)
		return true
	}
	q := tbl.mod.Value
	t := 1
	for m := n; m > 2; m >>= 1 {
		h := m >> 1
		switch {
		case t == 1:
			nttInvT1AVX2(&a[0], &tbl.psiInvRev[h], &tbl.psiInvRevShoup[h], q, h)
		case t == 2:
			nttInvT2AVX2(&a[0], &tbl.psiInvRev[h], &tbl.psiInvRevShoup[h], q, h)
		default:
			nttInvStageAVX2(&a[0], &tbl.psiInvRev[h], &tbl.psiInvRevShoup[h], q, h, t)
		}
		if debugEnabled {
			assertRowBound("nttInverseVec stage", a, 2*q)
		}
		t <<= 1
	}
	nttInvFinalAVX2(&a[0], q, tbl.nInv, tbl.nInvShoup, tbl.nInvPsi, tbl.nInvPsiShoup, n>>1)
	if debugEnabled {
		assertRowBound("nttInverseVec final", a, q)
	}
	return true
}

// tailPerm holds the lane indices of an IFMA stage whose butterflies
// span t < 8 lanes. A step works on 16 words, A = p[0:8] and B =
// p[8:16]; an index k < 8 names A[k] (or X[k]), 8+k names B[k] (or
// Y[k]). u and v gather the two halves of the step's 8 butterflies from
// (A, B), w picks each butterfly's twiddle from the step's 8/t
// consecutive table entries, and a and b scatter the butterflies'
// outputs (X, Y) back to A and B. The inverse stages use the same
// layout: a stage with lane count t reads and writes groups of 2t words.
type tailPerm struct {
	u, v, w, a, b [8]uint64
}

// ifmaTail is indexed by log2 t.
var ifmaTail = [3]tailPerm{
	{ // t = 1: pairs [x y]
		u: [8]uint64{0, 2, 4, 6, 8, 10, 12, 14},
		v: [8]uint64{1, 3, 5, 7, 9, 11, 13, 15},
		w: [8]uint64{0, 1, 2, 3, 4, 5, 6, 7},
		a: [8]uint64{0, 8, 1, 9, 2, 10, 3, 11},
		b: [8]uint64{4, 12, 5, 13, 6, 14, 7, 15},
	},
	{ // t = 2: groups [x0 x1 y0 y1]
		u: [8]uint64{0, 1, 4, 5, 8, 9, 12, 13},
		v: [8]uint64{2, 3, 6, 7, 10, 11, 14, 15},
		w: [8]uint64{0, 0, 1, 1, 2, 2, 3, 3},
		a: [8]uint64{0, 1, 8, 9, 2, 3, 10, 11},
		b: [8]uint64{4, 5, 12, 13, 6, 7, 14, 15},
	},
	{ // t = 4: groups [x0..x3 y0..y3]
		u: [8]uint64{0, 1, 2, 3, 8, 9, 10, 11},
		v: [8]uint64{4, 5, 6, 7, 12, 13, 14, 15},
		w: [8]uint64{0, 0, 0, 0, 1, 1, 1, 1},
		a: [8]uint64{0, 1, 2, 3, 8, 9, 10, 11},
		b: [8]uint64{4, 5, 6, 7, 12, 13, 14, 15},
	},
}

// checkIFMARow returns the row length after checking it is the table's
// degree: the IFMA stages count their steps from it and read twiddles
// by it, so a shorter row would run them past its end.
func checkIFMARow(tbl *nttTable, a []uint64) int {
	if len(a) != len(tbl.psiRev) {
		panic("ring: NTT row length is not the ring degree")
	}
	return len(a)
}

// nttForwardIFMA is the forward transform on the IFMA kernels: the
// broadcast-twiddle stage for t >= 8, then the three permute stages.
// The table selected IFMA, so q < 2^51 and n >= 16. A permute stage's
// VPERMQ reads 8 twiddles from its step's first one; the last step's
// read ends inside the table (at psiRev[n-1] for t = 1).
func nttForwardIFMA(tbl *nttTable, a []uint64) {
	n := checkIFMARow(tbl, a)
	q := tbl.mod.Value
	for m := 1; m < n; m <<= 1 {
		t := n / (2 * m)
		if t >= 8 {
			nttFwdStageIFMA(&a[0], &tbl.psiRev[m], &tbl.psiRevShoup[m], q, m, t)
		} else {
			nttFwdTailIFMA(&a[0], &tbl.psiRev[m], &tbl.psiRevShoup[m], q, n/16, &ifmaTail[bits.TrailingZeros(uint(t))], 64/t)
		}
		if debugEnabled {
			assertRowBound("nttForwardIFMA stage", a, q)
		}
	}
}

// nttInverseIFMA is the inverse transform on the IFMA kernels: the
// permute stages for t = 1, 2, 4, the broadcast-twiddle stages, and the
// folded-scaling final half-stage, under the same conditions as
// nttForwardIFMA.
func nttInverseIFMA(tbl *nttTable, a []uint64) {
	n := checkIFMARow(tbl, a)
	q := tbl.mod.Value
	t := 1
	for m := n; m > 2; m >>= 1 {
		h := m >> 1
		if t >= 8 {
			nttInvStageIFMA(&a[0], &tbl.psiInvRev[h], &tbl.psiInvRevShoup[h], q, h, t)
		} else {
			nttInvTailIFMA(&a[0], &tbl.psiInvRev[h], &tbl.psiInvRevShoup[h], q, n/16, &ifmaTail[bits.TrailingZeros(uint(t))], 64/t)
		}
		if debugEnabled {
			assertRowBound("nttInverseIFMA stage", a, 2*q)
		}
		t <<= 1
	}
	nttInvFinalIFMA(&a[0], q, tbl.nInv, tbl.nInvShoup, tbl.nInvPsi, tbl.nInvPsiShoup, n>>1)
	if debugEnabled {
		assertRowBound("nttInverseIFMA final", a, q)
	}
}

// mulModVector runs one row of MulCoeffs through the 4-wide AVX2
// kernel. A row qualifies when its length is a multiple of 4 (N is a
// power of two, so any ring with N >= 4 does).
func mulModVector(m nt.Modulus, ra, rb, ro []uint64) bool {
	if !vectorKernels || len(ro) < 4 || len(ro)%4 != 0 {
		return false
	}
	bHi, bLo := m.BarrettConstants()
	mulModVecAVX2(&ro[0], &ra[0], &rb[0], m.Value, bHi, bLo, len(ro))
	return true
}

// autoMulShoupAdd2Vector runs one row of AutomorphismNTTMulShoupAdd2
// through the IFMA kernel. The caller has checked Ring.useIFMA: q <
// 2^51 and len(ro0) a multiple of 8. Every operand is resliced to the
// row length so a short row panics here instead of being read past; the
// gather indices are below N by construction of the permutation.
func autoMulShoupAdd2Vector(q uint64, ra, perm, rb0, rs0, ro0, rb1, rs1, ro1 []uint64) {
	n := len(ro0)
	ra, perm, ro1 = ra[:n], perm[:n], ro1[:n]
	rb0, rs0, rb1, rs1 = rb0[:n], rs0[:n], rb1[:n], rs1[:n]
	autoMulShoupAdd2IFMA(&ro0[0], &ro1[0], &ra[0], &perm[0], &rb0[0], &rs0[0], &rb1[0], &rs1[0], q, n)
}

// mulAddWideVector runs one row of MulCoeffsAddWide through the IFMA
// kernel, under the same conditions as autoMulShoupAdd2Vector.
func mulAddWideVector(lo, hi, ra, rb []uint64) {
	n := len(lo)
	hi, ra, rb = hi[:n], ra[:n], rb[:n]
	mulAddWideIFMA(&lo[0], &hi[0], &ra[0], &rb[0], n)
}

// mulShoupVector runs one row of MulCoeffsShoupRow through the IFMA
// kernel, under the same conditions as autoMulShoupAdd2Vector.
func mulShoupVector(q uint64, ra, rb, rs, ro []uint64) {
	n := len(ro)
	ra, rb, rs = ra[:n], rb[:n], rs[:n]
	mulShoupIFMA(&ro[0], &ra[0], &rb[0], &rs[0], q, n)
}
