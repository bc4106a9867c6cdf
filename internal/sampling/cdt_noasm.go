//go:build !amd64 || purego

package sampling

// No vector CDT kernel on this build: cdtSample does every word.
func cdtSampleVector(dst []int64, words, t []uint64) int { return 0 }
