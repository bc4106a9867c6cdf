package cpu

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

func TestDetectionRuns(t *testing.T) {
	// On amd64 without purego the detection ran at init; on anything
	// else X86 must be all-false. Either way this must not crash, and
	// the result must be stable across reads.
	if runtime.GOARCH != "amd64" && (X86.HasAVX2 || X86.HasAVX512IFMA) {
		t.Fatalf("vector features reported on %s: %+v", runtime.GOARCH, X86)
	}
	t.Logf("GOARCH=%s HasAVX2=%v HasAVX512IFMA=%v", runtime.GOARCH, X86.HasAVX2, X86.HasAVX512IFMA)
}

// TestIFMAMatchesCPUInfo holds the IFMA detection to the kernel's own
// view of the processor: /proc/cpuinfo lists avx512ifma exactly when
// CPUID reports it and the OS has enabled the ZMM state.
func TestIFMAMatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare with: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(value)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	want := false
	for _, f := range flags {
		want = want || f == "avx512ifma"
	}
	if purego {
		want = false // no detection in this build: every feature reads false
	}
	if X86.HasAVX512IFMA != want {
		t.Fatalf("HasAVX512IFMA = %v, want %v (/proc/cpuinfo flags, purego build: %v)", X86.HasAVX512IFMA, want, purego)
	}
}
