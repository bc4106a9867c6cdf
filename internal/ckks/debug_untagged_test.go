//go:build !chocodebug

package ckks

import "testing"

// Twin of debug_tagged_test.go: the corruptions that panic under
// -tags chocodebug must not panic in the default build — the evaluator
// computes a wrong result, but the assertion layer is strictly
// additive.
func TestCorruptCiphertextSilentWithoutChocodebug(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1)
	ct, err := kit.enc.EncryptFloats([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	ct.Value[0].Coeffs[1][0] = kit.ctx.RingQ.Moduli[1].Value
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("untagged build panicked on a corrupted ciphertext: %v", r)
		}
	}()
	if _, err := kit.ev.Add(ct, ct); err != nil {
		t.Fatal(err)
	}
	if _, err := kit.ev.RotateLeft(ct, 1); err != nil {
		t.Fatal(err)
	}
	ct.Value[0].Coeffs[1][0] = 0
	ct.Level-- // mis-levelled: two residue rows at level 0
	if _, err := kit.ev.Add(ct, ct); err != nil {
		t.Fatal(err)
	}
}
