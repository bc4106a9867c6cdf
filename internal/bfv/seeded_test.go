package bfv

import "testing"

func TestSeededEncryptionDecrypts(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1)
	symEnc := NewSymmetricEncryptor(kit.ctx, kit.sk, [32]byte{71})
	vals := make([]uint64, kit.ctx.Params.N())
	for i := range vals {
		vals[i] = uint64(i*3) % kit.ctx.T.Value
	}
	sct, err := symEnc.EncryptUintsSeeded(vals)
	if err != nil {
		t.Fatal(err)
	}
	ct := sct.Expand(kit.ctx)
	got := kit.dec.DecryptUints(ct)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("slot %d: got %d want %d", i, got[i], vals[i])
		}
	}
	if b := NoiseBudget(kit.ctx, kit.sk, ct); b < 10 {
		t.Errorf("fresh symmetric budget %d too small", b)
	}
}

func TestSeededCiphertextSupportsServerOps(t *testing.T) {
	// The whole point: the server expands and computes as usual.
	kit := newTestKit(t, PresetTest(), 1)
	symEnc := NewSymmetricEncryptor(kit.ctx, kit.sk, [32]byte{72})
	tmod := kit.ctx.T.Value
	a := []uint64{3, 5, 7, 9}
	sct, _ := symEnc.EncryptUintsSeeded(a)
	ct := sct.Expand(kit.ctx)

	pt, _ := kit.ecd.EncodeUints([]uint64{2, 2, 2, 2})
	prod := kit.ev.MulPlain(ct, kit.ev.PrepareMul(pt))
	rot, err := kit.ev.RotateRows(prod, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := kit.dec.DecryptUints(rot)
	want := []uint64{10 % tmod, 14 % tmod, 18 % tmod}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestSeededCiphertextsAreFresh(t *testing.T) {
	// Distinct encryptions of the same message use distinct seeds and
	// produce distinct ciphertexts.
	kit := newTestKit(t, PresetTest())
	symEnc := NewSymmetricEncryptor(kit.ctx, kit.sk, [32]byte{74})
	a, _ := symEnc.EncryptUintsSeeded([]uint64{1, 2, 3})
	b, _ := symEnc.EncryptUintsSeeded([]uint64{1, 2, 3})
	if a.Seed == b.Seed {
		t.Fatal("seed reuse across encryptions")
	}
	if kit.ctx.RingQ.Equal(a.C0, b.C0) {
		t.Fatal("identical c0 across fresh encryptions")
	}
	// Expansion is deterministic: expanding twice gives identical cts.
	x := a.Expand(kit.ctx)
	y := a.Expand(kit.ctx)
	if !kit.ctx.RingQ.Equal(x.Value[1], y.Value[1]) {
		t.Fatal("expansion nondeterministic")
	}
}

func TestSeededDeterministicStream(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	e1 := NewSymmetricEncryptor(kit.ctx, kit.sk, [32]byte{75})
	e2 := NewSymmetricEncryptor(kit.ctx, kit.sk, [32]byte{75})
	a, _ := e1.EncryptUintsSeeded([]uint64{9})
	b, _ := e2.EncryptUintsSeeded([]uint64{9})
	if a.Seed != b.Seed || !kit.ctx.RingQ.Equal(a.C0, b.C0) {
		t.Error("same encryptor seed should reproduce the ciphertext")
	}
}
