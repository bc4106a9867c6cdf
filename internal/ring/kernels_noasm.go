//go:build !amd64 || purego

package ring

import "choco/internal/nt"

// Scalar-only build: no vector kernels exist, every dispatch helper
// reports "not handled" and the portable loops in ring.go run.

func vectorAvailable() bool { return false }
func ifmaAvailable() bool   { return false }

func nttForwardVec(tbl *nttTable, a []uint64) bool        { return false }
func nttInverseVec(tbl *nttTable, a []uint64) bool        { return false }
func mulModVector(m nt.Modulus, ra, rb, ro []uint64) bool { return false }

// The IFMA row kernels are never selected here (ifmaAvailable is false).
func autoMulShoupAdd2Vector(q uint64, ra, perm, rb0, rs0, ro0, rb1, rs1, ro1 []uint64) {
	panic("ring: no IFMA kernels in this build")
}
func mulAddWideVector(lo, hi, ra, rb []uint64) { panic("ring: no IFMA kernels in this build") }
func mulShoupVector(q uint64, ra, rb, rs, ro []uint64) {
	panic("ring: no IFMA kernels in this build")
}
