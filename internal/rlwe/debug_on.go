//go:build chocodebug

package rlwe

// DebugEnabled turns on the chocodebug assertion layer (see
// internal/ring/debug_on.go): the schemes' evaluator entry points validate
// every ciphertext operand, and the QP accumulator its lazy invariants, so
// a corrupted or mis-leveled ciphertext panics at the op that receives it
// instead of decrypting to garbage.
const DebugEnabled = true
