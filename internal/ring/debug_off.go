//go:build !chocodebug

package ring

// debugEnabled gates the chocodebug assertion layer. In the default
// build it is a compile-time false, so every `if debugEnabled { ... }`
// block is dead-code-eliminated and the hot loops carry no overhead.
const debugEnabled = false

func (r *Ring) debugCheck(op string, ps ...*Poly) {}

func (r *Ring) debugCheckRow(op string, lvl int, row []uint64) {}
