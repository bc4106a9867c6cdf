//go:build amd64 && !purego

package sampling

import "choco/internal/blake3"

// cdtSampleAVX2 is cdtSample for n words, four a register
// (cdt_amd64.s): n is a multiple of 4 and tlen a positive multiple of 4.
//
//go:noescape
func cdtSampleAVX2(dst *int64, words *uint64, n int, t *uint64, tlen int)

// cdtSampleVector runs the AVX2 kernel over the longest prefix of dst
// that is a multiple of 4 and returns its length, or 0 when the vector
// kernels are off. It follows the XOF squeeze's switch
// (blake3.VectorKernelsEnabled, which is on only on an AVX2 host), so
// the one switch ring.SetVectorKernels turns off every vector kernel.
func cdtSampleVector(dst []int64, words, t []uint64) int {
	n := len(dst) &^ 3
	if n == 0 || !blake3.VectorKernelsEnabled() {
		return 0
	}
	words = words[:n]
	cdtSampleAVX2(&dst[0], &words[0], n, &t[0], len(t))
	return n
}
