package ckks

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestSubPlainAndNeg(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	a := []float64{3, -1.5, 0.25, 8}
	p := []float64{1, 1, -2, 4}
	ct, _ := kit.enc.EncryptFloats(a)
	pt, _ := kit.ecd.EncodeFloats(p, ct.Level, ct.Scale)
	diff, err := kit.ev.SubPlain(ct, pt)
	if err != nil {
		t.Fatal(err)
	}
	got := kit.dec.DecryptFloats(diff)
	for i := range a {
		if math.Abs(got[i]-(a[i]-p[i])) > 1e-4 {
			t.Errorf("slot %d: got %v want %v", i, got[i], a[i]-p[i])
		}
	}
	neg := kit.ev.Neg(ct)
	gotNeg := kit.dec.DecryptFloats(neg)
	for i := range a {
		if math.Abs(gotNeg[i]+a[i]) > 1e-4 {
			t.Errorf("neg slot %d: got %v want %v", i, gotNeg[i], -a[i])
		}
	}
}

func TestSubPlainRejectsMismatch(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	ct, _ := kit.enc.EncryptFloats([]float64{1})
	pt, _ := kit.ecd.EncodeFloats([]float64{1}, ct.Level, ct.Scale*4)
	if _, err := kit.ev.SubPlain(ct, pt); err == nil {
		t.Error("expected scale mismatch error")
	}
	pt0, _ := kit.ecd.EncodeFloats([]float64{1}, 0, ct.Scale)
	if _, err := kit.ev.SubPlain(ct, pt0); err == nil {
		t.Error("expected level mismatch error")
	}
}

// TestEvaluatorMulPlain: MulPlain by a plaintext PrepareMulPlain readied
// decrypts to the slotwise product of its operands' decryption and
// decoding, within 1e-6 of values up to 8 in magnitude, at the top level
// and one below it, and its Shoup product is, word for word, the Barrett
// product (MulCoeffs) of the same transforms; a plaintext at another
// level, or one not readied, is refused with an error.
func TestEvaluatorMulPlain(t *testing.T) {
	kit := newTestKit(t, Parameters{LogN: 11, QBits: []int{50, 40, 40}, PBits: 51, LogScale: 40, Sigma: 3.2})
	a := rampFloats(64)
	w := make([]float64, 64)
	for i := range w {
		w[i] = 0.1*float64(i%9) - 0.4
	}
	top, err := kit.enc.EncryptFloats(a)
	if err != nil {
		t.Fatal(err)
	}
	below, err := kit.ev.DropLevel(top, top.Level-1)
	if err != nil {
		t.Fatal(err)
	}
	scale := kit.ctx.Params.DefaultScale()
	for _, ct := range []*Ciphertext{top, below} {
		pt, err := kit.ecd.EncodeFloats(w, ct.Level, scale)
		if err != nil {
			t.Fatal(err)
		}
		kit.ctx.PrepareMulPlain(pt)
		prod, err := kit.ev.MulPlain(ct, pt)
		if err != nil {
			t.Fatalf("level %d: %v", ct.Level, err)
		}
		if prod.Level != ct.Level || prod.Scale != ct.Scale*scale {
			t.Errorf("level %d: product at level %d scale %g, want level %d scale %g", ct.Level, prod.Level, prod.Scale, ct.Level, ct.Scale*scale)
		}
		x, y := kit.dec.DecryptFloats(ct), kit.ecd.DecodeFloats(pt)
		want := make([]float64, len(x))
		for i := range want {
			want[i] = x[i] * y[i]
		}
		assertClose(t, kit.dec.DecryptFloats(prod), want, 1e-6, fmt.Sprintf("MulPlain at level %d", ct.Level))
		r := kit.ctx.RingAtLevel(ct.Level)
		for k, c := range ct.Value {
			barrett := r.CopyPoly(c)
			r.NTT(barrett)
			r.MulCoeffs(barrett, pt.Poly, barrett)
			r.INTT(barrett)
			if !r.Equal(prod.Value[k], barrett) {
				t.Fatalf("level %d: MulPlain's Shoup product differs from the Barrett product in component %d", ct.Level, k)
			}
		}
	}

	low, err := kit.ecd.EncodeFloats(w, below.Level, scale)
	if err != nil {
		t.Fatal(err)
	}
	kit.ctx.PrepareMulPlain(low)
	if _, err := kit.ev.MulPlain(top, low); err == nil || !strings.Contains(err.Error(), "level mismatch") {
		t.Errorf("a plaintext a level below the ciphertext: error %v, want a level mismatch", err)
	}
	coeff, err := kit.ecd.EncodeFloats(w, top.Level, scale)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kit.ev.MulPlain(top, coeff); err == nil || !strings.Contains(err.Error(), "PrepareMulPlain") {
		t.Errorf("a coefficient-domain plaintext: error %v, want one asking for PrepareMulPlain", err)
	}
	kit.ctx.RingAtLevel(top.Level).NTT(coeff.Poly)
	if _, err := kit.ev.MulPlain(top, coeff); err == nil || !strings.Contains(err.Error(), "PrepareMulPlain") {
		t.Errorf("an NTT-domain plaintext without companions: error %v, want one asking for PrepareMulPlain", err)
	}
}
