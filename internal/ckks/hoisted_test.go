package ckks

import (
	"strings"
	"testing"

	"choco/internal/par"
	"choco/internal/ring"
)

func ctsIdentical(r *ring.Ring, a, b *Ciphertext) bool {
	if len(a.Value) != len(b.Value) || a.Level != b.Level || !scalesMatch(a.Scale, b.Scale) {
		return false
	}
	for i := range a.Value {
		if !r.Equal(a.Value[i], b.Value[i]) {
			return false
		}
	}
	return true
}

// TestHoistedMatchesSerialAllPresets pins the tentpole guarantee for
// CKKS: for every Galois element the evaluator holds a key for (all
// rotation steps plus conjugation), the hoisted batch produces
// ciphertexts byte-identical to the serial RotateLeft path, and a
// decomposition shared by every element gives what a fresh one gives.
func TestHoistedMatchesSerialAllPresets(t *testing.T) {
	steps := []int{1, 2, 3, 5, -1, -4}
	for _, tc := range []struct {
		name   string
		params Parameters
	}{
		{"PresetTest", PresetTest()},
		{"PresetC", PresetC()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kit := newTestKit(t, tc.params, steps...)
			ct, err := kit.enc.EncryptFloats(rampFloats(kit.ctx.Params.Slots()))
			if err != nil {
				t.Fatal(err)
			}
			rQl := kit.ctx.RingAtLevel(ct.Level)

			hoisted, err := kit.ev.RotateLeftHoisted(ct, steps)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range steps {
				serial, err := kit.ev.RotateLeft(ct, s)
				if err != nil {
					t.Fatal(err)
				}
				if !ctsIdentical(rQl, serial, hoisted[i]) {
					t.Errorf("steps=%d: hoisted ciphertext differs from serial", s)
				}
			}

			// Every Galois element in the key registry, including
			// conjugation, through the decomposed API directly.
			dc, err := kit.ev.Decompose(ct)
			if err != nil {
				t.Fatal(err)
			}
			defer dc.Release()
			for g, gk := range kit.ev.galois {
				viaHoist := kit.ev.applyGaloisDecomposed(dc, gk)
				fresh, err := kit.ev.Decompose(ct)
				if err != nil {
					t.Fatal(err)
				}
				viaSerial := kit.ev.applyGaloisDecomposed(fresh, gk)
				fresh.Release()
				if !ctsIdentical(rQl, viaSerial, viaHoist) {
					t.Errorf("galois=%d: shared decomposition differs from a fresh one", g)
				}
			}
		})
	}
}

// TestHoistedAtLowerLevel exercises the level-projected key-switching
// path: after rescaling, the hoisted batch must still match the serial
// path byte for byte and decode to the rotated values.
func TestHoistedAtLowerLevel(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1, 2)
	vals := rampFloats(kit.ctx.Params.Slots())
	ct, err := kit.enc.EncryptFloats(vals)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := kit.ev.MulRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	low, err := kit.ev.Rescale(sq)
	if err != nil {
		t.Fatal(err)
	}
	if low.Level >= ct.Level {
		t.Fatalf("rescale did not lower the level (%d)", low.Level)
	}
	steps := []int{1, 2}
	hoisted, err := kit.ev.RotateLeftHoisted(low, steps)
	if err != nil {
		t.Fatal(err)
	}
	rQl := kit.ctx.RingAtLevel(low.Level)
	for i, s := range steps {
		serial, err := kit.ev.RotateLeft(low, s)
		if err != nil {
			t.Fatal(err)
		}
		if !ctsIdentical(rQl, serial, hoisted[i]) {
			t.Errorf("level=%d steps=%d: hoisted differs from serial", low.Level, s)
		}
		decoded := kit.dec.DecryptFloats(hoisted[i])
		want := make([]float64, len(vals))
		for j := range want {
			v := vals[(j+s)%len(vals)]
			want[j] = v * v
		}
		assertClose(t, decoded[:16], want[:16], 1e-2, "hoisted rotation at lower level")
	}
}

// TestHoistedMissingGaloisKeyCKKS pins the error path at batch and
// per-element level.
func TestHoistedMissingGaloisKeyCKKS(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1)
	ct, err := kit.enc.EncryptFloats(rampFloats(kit.ctx.Params.Slots()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kit.ev.RotateLeftHoisted(ct, []int{1, 3}); err == nil {
		t.Fatal("expected missing-key error from hoisted batch")
	} else if !strings.Contains(err.Error(), "missing Galois key") {
		t.Fatalf("unexpected error: %v", err)
	}
	dc, err := kit.ev.Decompose(ct)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Release()
	if _, err := kit.ev.RotateLeftDecomposed(dc, 3); err == nil {
		t.Fatal("expected missing-key error from decomposed rotation")
	} else if !strings.Contains(err.Error(), "missing Galois key") {
		t.Fatalf("unexpected error: %v", err)
	}
	deg2, err := kit.ev.Mul(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kit.ev.Decompose(deg2); err == nil {
		t.Error("expected error decomposing a degree-2 ciphertext")
	}
}

// TestHoistedZeroStepIsCopyCKKS pins the steps==0 shortcut.
func TestHoistedZeroStepIsCopyCKKS(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1)
	ct, err := kit.enc.EncryptFloats(rampFloats(kit.ctx.Params.Slots()))
	if err != nil {
		t.Fatal(err)
	}
	outs, err := kit.ev.RotateLeftHoisted(ct, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !ctsIdentical(kit.ctx.RingAtLevel(ct.Level), ct, outs[0]) {
		t.Error("zero-step hoisted rotation is not a copy")
	}
}

// TestRotateLeftHoistedAllocs is the CKKS twin of bfv's
// TestRotateRowsHoistedAllocs, taken where CKKS differs from BFV: below
// the top level, where the switching keys are consumed through their
// level views. The views are built once per key beside the Shoup
// companions, so a steady-state batch-8 hoisted rotation allocates only
// bookkeeping — no more than the 100 objects BFV's top-level batch does,
// where it used to build six row-slice headers per digit per rotation.
func TestRotateLeftHoistedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	old := par.Parallelism()
	par.SetParallelism(1) // serial fallback: no goroutine or closure overhead
	defer par.SetParallelism(old)
	steps := []int{1, 2, 3, 4, 5, 6, 7, 8}
	kit := newTestKit(t, PresetC(), steps...)
	ct, err := kit.enc.EncryptFloats(rampFloats(kit.ctx.Params.Slots()))
	if err != nil {
		t.Fatal(err)
	}
	low, err := kit.ev.DropLevel(ct, ct.Level-1)
	if err != nil {
		t.Fatal(err)
	}
	r := kit.ctx.RingAtLevel(low.Level)
	batch := func() {
		outs, err := kit.ev.RotateLeftHoisted(low, steps)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			for _, p := range o.Value {
				r.PutPoly(p)
			}
		}
	}
	for i := 0; i < 4; i++ { // warm the ring scratch pools
		batch()
	}
	a := testing.AllocsPerRun(16, batch)
	t.Logf("rotate-batch8-hoisted below top level: %.1f allocs/op", a)
	if a > 100 {
		t.Errorf("hoisted batch-8 rotation allocates %.1f objects/op, want <= 100", a)
	}
}
