package ckks

import (
	"math"
	"testing"
)

func TestSeededEncryptionDecrypts(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	symEnc := NewSymmetricEncryptor(kit.ctx, kit.sk, [32]byte{91})
	vals := rampFloats(kit.ctx.Params.Slots())
	sct, err := symEnc.EncryptFloatsSeeded(vals)
	if err != nil {
		t.Fatal(err)
	}
	ct := sct.Expand(kit.ctx)
	got := kit.dec.DecryptFloats(ct)
	assertClose(t, got, vals, 1e-3, "seeded round trip")
}

func TestSeededCiphertextSupportsServerOps(t *testing.T) {
	// The whole point: the server expands and computes as usual.
	kit := newTestKit(t, PresetTest())
	symEnc := NewSymmetricEncryptor(kit.ctx, kit.sk, [32]byte{92})
	vals := rampFloats(kit.ctx.Params.Slots())
	sct, err := symEnc.EncryptFloatsSeeded(vals)
	if err != nil {
		t.Fatal(err)
	}
	ct := sct.Expand(kit.ctx)
	sum, err := kit.ev.Add(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	got := kit.dec.DecryptFloats(sum)
	want := make([]float64, len(vals))
	for i := range want {
		want[i] = 2 * vals[i]
	}
	assertClose(t, got, want, 1e-3, "seeded add")
}

func TestSeededHalvesUpload(t *testing.T) {
	// Paper Table 3 set C: a full fresh ciphertext is 262,144 bytes of
	// 8-byte words; the seeded form carries one polynomial plus 32 seed
	// bytes, and on the wire its two 60-bit rows take 8192·120/8 bytes.
	params := PresetC()
	if got := params.CiphertextBytes(); got != 262144 {
		t.Fatalf("PresetC full ciphertext %d bytes, want 262144", got)
	}
	ctx, err := NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, [32]byte{93})
	sk := kg.GenSecretKey()
	symEnc := NewSymmetricEncryptor(ctx, sk, [32]byte{94})
	sct, err := symEnc.EncryptFloatsSeeded([]float64{1.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := sct.C0.PackedBytes() + len(sct.Seed); got != 122912 {
		t.Errorf("seeded payload %d bytes, want 122912 (two packed 60-bit rows + seed)", got)
	}
}

func TestSeededCiphertextsAreFresh(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	symEnc := NewSymmetricEncryptor(kit.ctx, kit.sk, [32]byte{95})
	a, err := symEnc.EncryptFloatsSeeded([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := symEnc.EncryptFloatsSeeded([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Seed == b.Seed {
		t.Fatal("seed reuse across encryptions")
	}
	if kit.ctx.RingQ.Equal(a.C0, b.C0) {
		t.Fatal("identical c0 across fresh encryptions")
	}
	// Expansion is deterministic and preserves scale/level metadata.
	x := a.Expand(kit.ctx)
	y := a.Expand(kit.ctx)
	if !kit.ctx.RingQ.Equal(x.Value[1], y.Value[1]) {
		t.Fatal("expansion nondeterministic")
	}
	if x.Level != a.Level || math.Float64bits(x.Scale) != math.Float64bits(a.Scale) {
		t.Fatal("expansion dropped level/scale metadata")
	}
}
