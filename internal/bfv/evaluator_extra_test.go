package bfv

import "testing"

func TestMulScalarMatchesPlainMultiply(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	tmod := kit.ctx.T.Value
	vals := []uint64{1, 2, 3, tmod - 1}
	ct, _ := kit.enc.EncryptUints(vals)
	out := kit.ev.MulScalar(ct, 7)
	got := kit.dec.DecryptUints(out)
	for i, v := range vals {
		if got[i] != v*7%tmod {
			t.Errorf("slot %d: got %d want %d", i, got[i], v*7%tmod)
		}
	}
	// Scalar multiply must be much gentler on the budget than a full
	// plaintext multiply with arbitrary slot values.
	pt, _ := kit.ecd.EncodeUints([]uint64{7, 7, 7, 7, 5})
	viaPlain := kit.ev.MulPlain(ct, kit.ev.PrepareMul(pt))
	bScalar := NoiseBudget(kit.ctx, kit.sk, out)
	bPlain := NoiseBudget(kit.ctx, kit.sk, viaPlain)
	if bScalar <= bPlain {
		t.Errorf("scalar multiply budget %d should beat plain multiply %d", bScalar, bPlain)
	}
}

func TestMulScalarZeroAnnihilates(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	ct, _ := kit.enc.EncryptUints([]uint64{5, 6, 7})
	got := kit.dec.DecryptUints(kit.ev.MulScalar(ct, 0))
	for i, v := range got[:8] {
		if v != 0 {
			t.Errorf("slot %d = %d after ×0", i, v)
		}
	}
}
