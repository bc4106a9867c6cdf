//go:build chocodebug

package bfv

import (
	"fmt"
	"strings"
	"testing"
)

func mustPanicBFV(t *testing.T, f func()) (msg string) {
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
	kit := newTestKit(t, PresetTest())
	ct, err := kit.enc.EncryptUints([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	ct.Value[0].Coeffs[0][0] = kit.ctx.RingQ.Moduli[0].Value // >= q_0
	msg := mustPanicBFV(t, func() { kit.ev.Add(ct, ct) })
	if !strings.Contains(msg, "chocodebug") || !strings.Contains(msg, "out of range") {
		t.Fatalf("unexpected panic message: %q", msg)
	}
}

// TestChocodebugBadDropPanics hands the evaluator a ciphertext whose
// Drop field is outside the modulus chain.
func TestChocodebugBadDropPanics(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	ct, err := kit.enc.EncryptUints([]uint64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	ct.Drop = kit.ctx.MaxDrop() + 1
	msg := mustPanicBFV(t, func() { kit.ev.MulScalar(ct, 3) })
	if !strings.Contains(msg, "chocodebug") || !strings.Contains(msg, "drop") {
		t.Fatalf("unexpected panic message: %q", msg)
	}
}

// TestChocodebugLevelMismatchPanics truncates a component polynomial's
// modulus chain without updating Drop — exactly the inconsistency a
// buggy modulus-switch or deserializer would introduce.
func TestChocodebugLevelMismatchPanics(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	ct, err := kit.enc.EncryptUints([]uint64{7})
	if err != nil {
		t.Fatal(err)
	}
	ct.Value[1].Coeffs = ct.Value[1].Coeffs[:1]
	msg := mustPanicBFV(t, func() { kit.ev.Neg(ct) })
	if !strings.Contains(msg, "chocodebug") || !strings.Contains(msg, "residue rows") {
		t.Fatalf("unexpected panic message: %q", msg)
	}
}

// TestChocodebugMulPlainAccResidencyPanics mixes rings in an inner sum: a
// ciphertext resident in Q (built by hand — every evaluator entry point
// hands out QP-resident ones) against a QP plaintext, and a QP-resident
// ciphertext against a plaintext with the data rows only. Both must fail
// by name, not index past the shorter operand or silently use a prefix of
// the longer.
func TestChocodebugMulPlainAccResidencyPanics(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	ct, err := kit.enc.EncryptUints([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := kit.ecd.EncodeUints([]uint64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	pm := kit.ev.PrepareMul(pt)
	rQ := kit.ctx.RingQ

	inQ := &NTTCiphertext{ring: rQ}
	for _, p := range ct.Value {
		c := rQ.CopyPoly(p)
		rQ.NTT(c)
		inQ.Value = append(inQ.Value, c)
	}
	msg := mustPanicBFV(t, func() { kit.ev.MulPlainAcc(kit.ev.NewNTTAccumulator(), inQ, pm) })
	if !strings.Contains(msg, "chocodebug") || !strings.Contains(msg, "not resident in the key ring QP") {
		t.Fatalf("unexpected panic message: %q", msg)
	}

	msg = mustPanicBFV(t, func() { kit.ev.MulPlainAcc(kit.ev.NewNTTAccumulator(), kit.ev.ToNTT(ct), &PlaintextMul{NTT: pm.q}) })
	if !strings.Contains(msg, "chocodebug") || !strings.Contains(msg, "plaintext has 2 residue rows") {
		t.Fatalf("unexpected panic message: %q", msg)
	}
}
