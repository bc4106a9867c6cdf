//go:build chocodebug

package ckks

import (
	"fmt"
	"strings"
	"testing"
)

// The CKKS twins of bfv/debug_tagged_test.go: the assertion layer lives
// in internal/rlwe keyed on level, so CKKS gets it through the same
// entry-point checks. (The undrained-accumulator-row invariant needs the
// accumulator's internals and is pinned in rlwe's own tagged tests.)

func mustPanicCKKS(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected chocodebug panic, got normal return")
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return
}

// TestChocodebugCorruptCiphertextPanics plants an out-of-range residue
// in a freshly encrypted ciphertext and checks the next evaluator op
// panics under -tags chocodebug.
func TestChocodebugCorruptCiphertextPanics(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1)
	ct, err := kit.enc.EncryptFloats([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	ct.Value[0].Coeffs[1][0] = kit.ctx.RingQ.Moduli[1].Value // >= q_1
	for name, op := range map[string]func(){
		"Add":        func() { kit.ev.Add(ct, ct) },
		"RotateLeft": func() { kit.ev.RotateLeft(ct, 1) },
		"Rescale":    func() { kit.ev.Rescale(ct) },
	} {
		if msg := mustPanicCKKS(t, op); !strings.Contains(msg, "chocodebug") || !strings.Contains(msg, "out of range") {
			t.Fatalf("%s: unexpected panic message: %q", name, msg)
		}
	}
}

// TestChocodebugBadLevelPanics hands the evaluator a ciphertext whose
// Level field is outside the modulus chain.
func TestChocodebugBadLevelPanics(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	ct, err := kit.enc.EncryptFloats([]float64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	ct.Level = kit.ctx.MaxLevel() + 1
	msg := mustPanicCKKS(t, func() { kit.ev.MulScalar(ct, 3) })
	if !strings.Contains(msg, "chocodebug") || !strings.Contains(msg, "level") {
		t.Fatalf("unexpected panic message: %q", msg)
	}
}

// TestChocodebugLevelMismatchPanics lowers the Level field without
// dropping the residue rows — the mis-levelled operand a buggy rescale
// or deserializer would produce. The default build silently adds the
// first row alone.
func TestChocodebugLevelMismatchPanics(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	ct, err := kit.enc.EncryptFloats([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	ct.Level--
	msg := mustPanicCKKS(t, func() { kit.ev.Add(ct, ct) })
	if !strings.Contains(msg, "chocodebug") || !strings.Contains(msg, "residue rows") {
		t.Fatalf("unexpected panic message: %q", msg)
	}
}
