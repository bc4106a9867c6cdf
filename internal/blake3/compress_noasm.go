//go:build !amd64 || purego

package blake3

// No vector compression kernel on this build: vectorAvailable pins the
// dispatch to the scalar reference path and the fill helpers are
// no-ops the portable squeeze loops fall through.

func vectorAvailable() bool { return false }

// wide16 mirrors the amd64 build's 16-wide selector; nothing reads it
// here but the tests, which find it off.
var wide16 = false

func (x *XOF) fillBlocks(p []byte) int { return 0 }

func (x *XOF) fillWords(out []uint64) int { return 0 }
