//go:build amd64 && !purego

package ring

import (
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
func mulModAddVecAVX2(ro, ra, rb *uint64, q, bHi, bLo uint64, n int)

//go:noescape
func mulShoupAdd2VecAVX2(ro0, ro1, ra, rb0, rs0, rb1, rs1 *uint64, q uint64, n int)

//go:noescape
func autoMulShoupAdd2IFMA(ro0, ro1, ra, perm, rb0, rs0, rb1, rs1 *uint64, q uint64, n int)

//go:noescape
func mulAddWideIFMA(lo, hi, ra, rb *uint64, n int)

// nttForwardVec runs the forward transform through the AVX2 stage
// kernels. Each stage is the same eager Cooley-Tukey butterfly sweep
// as the scalar loop — identical per-element arithmetic, so the result
// is bit-identical, not merely congruent. Returns false (caller runs
// scalar) when disabled or when the ring is too small to fill a vector
// (n < 8).
func nttForwardVec(tbl *nttTable, a []uint64) bool {
	n := len(a)
	if !vectorKernels || n < 8 {
		return false
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

// nttInverseVec runs the inverse transform through the AVX2 stage
// kernels, replicating the scalar loop's Harvey lazy-reduction
// schedule exactly: lanes live in [0, 2q) between stages and the
// final folded-scaling half-stage restores canonical [0, q).
func nttInverseVec(tbl *nttTable, a []uint64) bool {
	n := len(a)
	if !vectorKernels || n < 8 {
		return false
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

// vectorLen reports whether a residue row of length n can go through
// the 4-wide dyadic kernels (N is a power of two, so any ring with
// N >= 4 qualifies).
func vectorLen(n int) bool { return vectorKernels && n >= 4 && n%4 == 0 }

func mulModVector(m nt.Modulus, ra, rb, ro []uint64) bool {
	if !vectorLen(len(ro)) {
		return false
	}
	bHi, bLo := m.BarrettConstants()
	mulModVecAVX2(&ro[0], &ra[0], &rb[0], m.Value, bHi, bLo, len(ro))
	return true
}

func mulModAddVector(m nt.Modulus, ra, rb, ro []uint64) bool {
	if !vectorLen(len(ro)) {
		return false
	}
	bHi, bLo := m.BarrettConstants()
	mulModAddVecAVX2(&ro[0], &ra[0], &rb[0], m.Value, bHi, bLo, len(ro))
	return true
}

func mulShoupAdd2Vector(m nt.Modulus, ra, rb0, rs0, ro0, rb1, rs1, ro1 []uint64) bool {
	if !vectorLen(len(ro0)) {
		return false
	}
	mulShoupAdd2VecAVX2(&ro0[0], &ro1[0], &ra[0], &rb0[0], &rs0[0], &rb1[0], &rs1[0], m.Value, len(ro0))
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
