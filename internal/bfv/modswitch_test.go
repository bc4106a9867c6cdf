package bfv

import (
	"testing"

	"choco/internal/ring"
)

func TestModSwitchDownPreservesPlaintext(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	vals := make([]uint64, kit.ctx.Params.N())
	for i := range vals {
		vals[i] = uint64(i) % kit.ctx.T.Value
	}
	ct, err := kit.enc.EncryptUints(vals)
	if err != nil {
		t.Fatal(err)
	}
	before := NoiseBudget(kit.ctx, kit.sk, ct)
	small, err := kit.ev.ModSwitchDown(ct)
	if err != nil {
		t.Fatal(err)
	}
	if small.Drop != 1 {
		t.Fatalf("drop = %d", small.Drop)
	}
	after := NoiseBudget(kit.ctx, kit.sk, small)
	t.Logf("budget before %d, after switch %d", before, after)
	if after <= 0 {
		t.Fatal("budget exhausted by the switch")
	}
	got := kit.dec.DecryptUints(small)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("slot %d: got %d want %d", i, got[i], vals[i])
		}
	}
}

func TestModSwitchDownAfterComputation(t *testing.T) {
	// The deployment pattern: compute at full modulus, switch, send.
	kit := newTestKit(t, PresetTest(), 1)
	vals := []uint64{3, 5, 7, 11}
	ct, _ := kit.enc.EncryptUints(vals)
	pt, _ := kit.ecd.EncodeUints([]uint64{2, 2, 2, 2})
	prod := kit.ev.MulPlain(ct, kit.ev.PrepareMul(pt))
	rot, err := kit.ev.RotateRows(prod, 1)
	if err != nil {
		t.Fatal(err)
	}
	small, err := kit.ev.ModSwitchDown(rot)
	if err != nil {
		t.Fatal(err)
	}
	got := kit.dec.DecryptUints(small)
	want := []uint64{10, 14, 22}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestModSwitchWireShrinks(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	ct, _ := kit.enc.EncryptUints([]uint64{1, 2, 3})
	small, err := kit.ev.ModSwitchDown(ct)
	if err != nil {
		t.Fatal(err)
	}
	if rows := len(small.Value[0].Coeffs); rows != 1 {
		t.Errorf("dropped ciphertext has %d residue rows, want 1", rows)
	}
	p := kit.ctx.Params
	if got, want := small.Value[0].PackedBytes(), ring.PackedBytes(p.N(), p.QBits[0]); got != want || got >= ct.Value[0].PackedBytes() {
		t.Errorf("dropped polynomial packs to %d B, want %d (one %d-bit row); the full one takes %d", got, want, p.QBits[0], ct.Value[0].PackedBytes())
	}
}

func TestModSwitchFloor(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	ct, _ := kit.enc.EncryptUints([]uint64{1})
	small, err := kit.ev.ModSwitchDown(ct)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kit.ev.ModSwitchDown(small); err == nil {
		t.Error("expected error switching below one residue")
	}
}

func TestDroppedCiphertextOpsRestricted(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1)
	a, _ := kit.enc.EncryptUints([]uint64{1, 2})
	b, _ := kit.enc.EncryptUints([]uint64{10, 20})
	da, err := kit.ev.ModSwitchDown(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := kit.ev.ModSwitchDown(b)
	if err != nil {
		t.Fatal(err)
	}
	// Additions still work at matching levels.
	sum := kit.ev.Add(da, db)
	got := kit.dec.DecryptUints(sum)
	if got[0] != 11 || got[1] != 22 {
		t.Errorf("dropped add: %v", got[:2])
	}
	// Mixed levels and multiplicative ops fail loudly.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic adding mixed levels")
			}
		}()
		kit.ev.Add(a, db)
	}()
	if _, err := kit.ev.RotateRows(da, 1); err == nil {
		t.Error("expected rotation rejection at dropped level")
	}
	if _, err := kit.ev.Mul(da, db); err == nil {
		t.Error("expected Mul rejection at dropped level")
	}
}

// TestReplyDrop holds Parameters.ReplyDrop to its stated rule — shed
// trailing primes while the switch's own noise leaves replyFloorBits — and
// the rule to the measurement: a fresh ciphertext, whose budget is far
// above any ceiling, switched down ReplyDrop times keeps at least the
// floor and decrypts.
func TestReplyDrop(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params Parameters
		want   int
	}{
		{"bfv-A", PresetA(), 1},
		{"bfv-B", PresetB(), 1}, // 35 − 18 − 6.8 = 10.2 bits at q0
		{"test", PresetTest(), 1},
		{"three primes, two to spare", Parameters{LogN: 11, QBits: []int{40, 40, 40}, PBits: 41, TBits: 16, Sigma: 3.2}, 2},
		{"three primes, stops at the floor", Parameters{LogN: 11, QBits: []int{30, 30, 30}, PBits: 31, TBits: 18, Sigma: 3.2}, 1}, // 29 − 18 − 6.3 = 4.7 bits at q0
		{"one data prime", Parameters{LogN: 11, QBits: []int{40}, PBits: 41, TBits: 17, Sigma: 3.2}, 0},
	} {
		if got := tc.params.ReplyDrop(); got != tc.want {
			t.Errorf("%s: ReplyDrop = %d, want %d", tc.name, got, tc.want)
			continue
		}
		if tc.params.LogN > 11 {
			continue // the presets' layers are measured in nn.TestReplySwitchNoise
		}
		kit := newTestKit(t, tc.params)
		vals := []uint64{1, 2, 3, 4}
		ct, _ := kit.enc.EncryptUints(vals)
		for d := 0; d < tc.want; d++ {
			var err error
			if ct, err = kit.ev.ModSwitchDown(ct); err != nil {
				t.Fatal(err)
			}
		}
		budget := NoiseBudgetBits(kit.ctx, kit.sk, ct)
		t.Logf("%s: dropped %d of %d residues; budget left %.1f bits", tc.name, ct.Drop, len(tc.params.QBits), budget)
		if tc.want > 0 && budget < replyFloorBits {
			t.Errorf("%s: %.1f bits left after the switch, the rule promises %d", tc.name, budget, replyFloorBits)
		}
		if got := kit.dec.DecryptUints(ct); got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 4 {
			t.Errorf("%s: switched ciphertext decrypts to %v", tc.name, got[:4])
		}
	}
}
