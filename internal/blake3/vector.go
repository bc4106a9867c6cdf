package blake3

// vectorKernels gates the SIMD XOF squeeze path at run time. It starts
// at whatever the build's architecture detection found
// (vectorAvailable: AVX2 on amd64 builds without the purego tag, false
// everywhere else; the 16-wide AVX-512 kernel also runs where the host
// has the ring's IFMA tier) and can be forced off — the scalar compression
// function stays in-tree as the byte-exactness oracle, same pattern as
// the ring package's scalar kernels.
var vectorKernels = vectorAvailable()

// SetVectorKernels enables or disables the vectorized compression
// kernels. Enabling is a no-op on builds or hosts without vector
// support. It returns the resulting state. Not safe to call
// concurrently with in-flight hashing; it exists for tests, benchmarks
// (scalar-vs-vector), and as an operational kill-switch.
func SetVectorKernels(on bool) bool {
	vectorKernels = on && vectorAvailable()
	return vectorKernels
}

// VectorKernelsEnabled reports whether the vector squeeze path is
// currently selected.
func VectorKernelsEnabled() bool { return vectorKernels }
