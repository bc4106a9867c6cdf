package bfv

import (
	"strings"
	"testing"

	"choco/internal/ring"
)

func ctsIdentical(r *ring.Ring, a, b *Ciphertext) bool {
	if len(a.Value) != len(b.Value) || a.Drop != b.Drop {
		return false
	}
	for i := range a.Value {
		if !r.Equal(a.Value[i], b.Value[i]) {
			return false
		}
	}
	return true
}

// TestHoistedMatchesSerialAllPresets pins the tentpole guarantee on the
// paper's parameter presets: for every Galois element the evaluator
// holds a key for (all rotation steps plus the row swap), the hoisted
// batch produces ciphertexts byte-identical to the serial
// RotateRows/applyGalois path, with matching noise budgets.
func TestHoistedMatchesSerialAllPresets(t *testing.T) {
	steps := []int{1, 2, 3, 5, -1, -4}
	for _, tc := range []struct {
		name   string
		params Parameters
	}{
		{"PresetTest", PresetTest()},
		{"PresetA", PresetA()},
		{"PresetB", PresetB()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kit := newTestKit(t, tc.params, steps...)
			rQ := kit.ctx.RingQ
			ct, err := kit.enc.EncryptUints(rampUints(kit.ctx.Params.N(), kit.ctx.T.Value))
			if err != nil {
				t.Fatal(err)
			}

			// Batch API vs one serial rotation per step.
			hoisted, err := kit.ev.RotateRowsHoisted(ct, steps)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range steps {
				serial, err := kit.ev.RotateRows(ct, s)
				if err != nil {
					t.Fatal(err)
				}
				if !ctsIdentical(rQ, serial, hoisted[i]) {
					t.Errorf("steps=%d: hoisted ciphertext differs from serial", s)
				}
				if sb, hb := NoiseBudget(kit.ctx, kit.sk, serial), NoiseBudget(kit.ctx, kit.sk, hoisted[i]); sb != hb {
					t.Errorf("steps=%d: noise budget %d (serial) vs %d (hoisted)", s, sb, hb)
				}
			}

			// Every Galois element in the key registry, including the
			// row swap, through the decomposed API directly.
			dc, err := kit.ev.Decompose(ct)
			if err != nil {
				t.Fatal(err)
			}
			defer dc.Release()
			for g := range kit.ev.galois {
				viaHoist, err := kit.ev.applyGaloisDecomposed(dc, g)
				if err != nil {
					t.Fatal(err)
				}
				viaSerial, err := kit.ev.applyGalois(ct, g)
				if err != nil {
					t.Fatal(err)
				}
				if !ctsIdentical(rQ, viaSerial, viaHoist) {
					t.Errorf("galois=%d: decomposed result differs from applyGalois", g)
				}
			}
		})
	}
}

// TestHoistedZeroStepIsCopy pins the steps==0 shortcut of the
// decomposed path against the serial one.
func TestHoistedZeroStepIsCopy(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1)
	ct, err := kit.enc.EncryptUints(rampUints(kit.ctx.Params.N(), kit.ctx.T.Value))
	if err != nil {
		t.Fatal(err)
	}
	outs, err := kit.ev.RotateRowsHoisted(ct, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !ctsIdentical(kit.ctx.RingQ, ct, outs[0]) {
		t.Error("zero-step hoisted rotation is not a copy")
	}
}

// TestHoistedMissingGaloisKey exercises the error path: a batch that
// includes a step without a generated key must fail with the same
// missing-key error as the serial path, at batch and per-element level.
func TestHoistedMissingGaloisKey(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1)
	ct, err := kit.enc.EncryptUints(rampUints(kit.ctx.Params.N(), kit.ctx.T.Value))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kit.ev.RotateRowsHoisted(ct, []int{1, 3}); err == nil {
		t.Fatal("expected missing-key error from hoisted batch")
	} else if !strings.Contains(err.Error(), "missing Galois key") {
		t.Fatalf("unexpected error: %v", err)
	}
	dc, err := kit.ev.Decompose(ct)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Release()
	if _, err := kit.ev.RotateRowsDecomposed(dc, 3); err == nil {
		t.Fatal("expected missing-key error from decomposed rotation")
	} else if !strings.Contains(err.Error(), "missing Galois key") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestDecomposeRejectsBadInputs pins the degree/level guards.
func TestDecomposeRejectsBadInputs(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1)
	ct, err := kit.enc.EncryptUints(rampUints(kit.ctx.Params.N(), kit.ctx.T.Value))
	if err != nil {
		t.Fatal(err)
	}
	deg2, err := kit.ev.Mul(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kit.ev.Decompose(deg2); err == nil {
		t.Error("expected error for degree-2 ciphertext")
	}
	dropped, err := kit.ev.ModSwitchDown(ct)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kit.ev.Decompose(dropped); err == nil {
		t.Error("expected error for modulus-switched ciphertext")
	}
}

// TestHoistedMatchesUnhoistedKeySwitchPath is the mathematical anchor:
// the pre-hoisting rotation (automorphism of c1 in the coefficient
// domain, then a fresh keySwitch decomposition) and the hoisted one
// (decompose first, permute digits in the NTT domain) are different
// decompositions of the same polynomial, so their ciphertext bytes may
// differ — but both must decrypt to the same rotated plaintext with a
// healthy noise budget.
func TestHoistedMatchesUnhoistedKeySwitchPath(t *testing.T) {
	const steps = 3
	kit := newTestKit(t, PresetTest(), steps)
	vals := rampUints(kit.ctx.Params.N(), kit.ctx.T.Value)
	ct, err := kit.enc.EncryptUints(vals)
	if err != nil {
		t.Fatal(err)
	}
	r := kit.ctx.RingQ
	g := r.GaloisElementForRotation(steps)
	gk := kit.ev.galois[g]

	// The pre-hoisting path, reconstructed verbatim.
	c0 := r.GetPoly()
	c1 := r.GetPoly()
	r.Automorphism(ct.Value[0], g, c0)
	r.Automorphism(ct.Value[1], g, c1)
	d0, d1 := kit.ctx.KeySwitch(c1, gk.Key, kit.ctx.MaxLevel())
	old := &Ciphertext{Value: []*ring.Poly{r.NewPoly(), d1}}
	r.Add(c0, d0, old.Value[0])
	r.PutPoly(c0)
	r.PutPoly(c1)
	r.PutPoly(d0)

	rotated, err := kit.ev.RotateRows(ct, steps)
	if err != nil {
		t.Fatal(err)
	}

	oldDec := kit.ecd.DecodeUints(kit.dec.Decrypt(old))
	newDec := kit.ecd.DecodeUints(kit.dec.Decrypt(rotated))
	for i := range oldDec {
		if oldDec[i] != newDec[i] {
			t.Fatalf("slot %d: unhoisted path decodes %d, hoisted path %d", i, oldDec[i], newDec[i])
		}
	}
	if b := NoiseBudget(kit.ctx, kit.sk, rotated); b <= 0 {
		t.Fatalf("hoisted rotation exhausted the noise budget (%d bits)", b)
	}
	if ob, nb := NoiseBudget(kit.ctx, kit.sk, old), NoiseBudget(kit.ctx, kit.sk, rotated); nb < ob-1 {
		t.Fatalf("hoisted rotation noticeably noisier: %d vs %d bits", nb, ob)
	}
}
