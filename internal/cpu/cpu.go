// Package cpu detects the SIMD capabilities of the host processor so
// the hand-written vector kernels in internal/ring and internal/blake3
// can be selected once at init time. Detection is hand-rolled CPUID
// (the module is stdlib-only by policy); on non-amd64 builds, and on
// builds with the purego tag, every feature reports false and the
// scalar reference kernels run everywhere.
package cpu

// X86 reports the instruction-set extensions of the host, populated at
// init on amd64 builds without the purego tag. HasAVX2 is only set when
// the OS has also enabled YMM state saving (OSXSAVE + XCR0), so a true
// value means 256-bit kernels are actually safe to execute.
// HasAVX512IFMA likewise needs the OS to save the opmask and full ZMM
// state; it reports AVX-512 Foundation plus the 52-bit integer
// multiply-add (VPMADD52LUQ/HUQ), everything the ring's IFMA kernels
// execute.
var X86 struct {
	HasAVX2       bool
	HasAVX512IFMA bool
}
