//go:build !amd64 || purego

package cpu

// purego reports a build without CPUID detection: X86 stays zero.
const purego = true
