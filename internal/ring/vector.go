package ring

import "choco/internal/blake3"

// vectorKernels gates the SIMD ring kernels (AVX2 and IFMA NTT stage
// sweeps, the AVX2 dyadic product, and the IFMA key-switch,
// multiply-accumulate and Shoup-product loops) at run time. It starts at whatever the
// build's architecture detection found and can be forced off; the
// scalar loops stay in-tree as the byte-exactness oracle, and every
// vector kernel is bit-identical to its scalar twin by construction.
var vectorKernels = vectorAvailable()

// SetVectorKernels enables or disables the vectorized kernels across
// the compute stack — this package's NTT/dyadic kernels, the BLAKE3
// XOF squeeze the samplers draw from, and the CDT Gaussian sampler,
// which follows the squeeze's switch. Enabling is a no-op on builds or
// hosts without vector support. It returns the resulting ring-kernel
// state. Not safe to call concurrently with in-flight ring operations;
// it exists for tests, scalar-vs-vector benchmarks, and as an
// operational kill-switch.
func SetVectorKernels(on bool) bool {
	vectorKernels = on && vectorAvailable()
	blake3.SetVectorKernels(on)
	return vectorKernels
}

// VectorKernelsEnabled reports whether the vector ring kernels are
// currently selected.
func VectorKernelsEnabled() bool { return vectorKernels }

// KernelTier names the widest vector kernels this process runs:
// "avx512ifma" when the AVX-512 IFMA kernels are selected (the NTT
// stages serve each residue row whose prime is below 2^51, the
// key-switch inner product, the multiply-accumulate and the Shoup
// product rings whose primes all are; the rest runs the AVX2 ones) —
// the BLAKE3 XOF squeeze then runs 16 wide on AVX-512 too, as it is
// gated on the same CPU decision; "avx2" when the AVX2 kernels are (the
// 8-wide squeeze among them); "scalar" otherwise. The CDT Gaussian
// sampler runs on AVX2 at either vector tier.
func KernelTier() string {
	switch {
	case vectorKernels && ifmaAvailable():
		return "avx512ifma"
	case vectorKernels:
		return "avx2"
	}
	return "scalar"
}

// assertRowBound panics if any lane of a is outside [0, bound). Only
// called under the chocodebug build tag, where the vector NTT drivers
// verify the Harvey lazy-reduction invariants after every stage.
func assertRowBound(op string, a []uint64, bound uint64) {
	for _, v := range a {
		if v >= bound {
			panic("ring: " + op + ": lane out of bound")
		}
	}
}
