//go:build amd64 && !purego

package cpu

// cpuid and xgetbv are implemented in cpu_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

func init() {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		cpuidOSXSAVE = 1 << 27
		cpuidAVX     = 1 << 28
	)
	if ecx1&cpuidOSXSAVE == 0 || ecx1&cpuidAVX == 0 {
		return
	}
	// XCR0 bits 1 (SSE state) and 2 (AVX/YMM state) must both be set by
	// the OS or executing 256-bit instructions faults; 512-bit ones also
	// need bits 5–7 (opmask, upper halves of ZMM0–15, ZMM16–31).
	xcr0, _ := xgetbv()
	const (
		xcr0YMM = 0x6
		xcr0ZMM = 0xe0
	)
	if xcr0&xcr0YMM != xcr0YMM {
		return
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		cpuidAVX2       = 1 << 5
		cpuidAVX512F    = 1 << 16
		cpuidAVX512IFMA = 1 << 21
	)
	X86.HasAVX2 = ebx7&cpuidAVX2 != 0
	X86.HasAVX512IFMA = xcr0&xcr0ZMM == xcr0ZMM &&
		ebx7&cpuidAVX512F != 0 && ebx7&cpuidAVX512IFMA != 0
}
