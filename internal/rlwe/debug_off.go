//go:build !chocodebug

package rlwe

// DebugEnabled gates the chocodebug assertion layer; compile-time false
// in the default build, so every `if DebugEnabled { ... }` block is
// dead-code-eliminated.
const DebugEnabled = false
