package bfv

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"choco/internal/ring"
)

// TestEncodeCoeffsRoundTrip: signed values written into coefficients come
// back centered, trailing coefficients zero, and more values than
// coefficients are refused.
func TestEncodeCoeffsRoundTrip(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	half := int64(kit.ctx.T.Value / 2)
	vals := []int64{0, 1, -1, half, -half + 1, 12345, -12345}
	pt, err := kit.ecd.EncodeCoeffs(vals)
	if err != nil {
		t.Fatal(err)
	}
	got := kit.ecd.DecodeCoeffs(pt)
	for i, v := range got {
		want := int64(0)
		if i < len(vals) {
			want = vals[i]
		}
		if v != want {
			t.Fatalf("coefficient %d: %d, want %d", i, v, want)
		}
	}
	if _, err := kit.ecd.EncodeCoeffs(make([]int64, kit.ctx.Params.N()+1)); err == nil {
		t.Error("N+1 coefficients accepted")
	}
}

// TestMulPlainQIsPolynomialProduct: a coefficient-encoded input times a
// PlaintextQ of signed coefficients decrypts to their negacyclic product
// mod t, the terms that wrap past N negated, for every coefficient; and
// MulPlain, the same body over a batch-encoded plaintext's data rows,
// still multiplies slot by slot.
func TestMulPlainQIsPolynomialProduct(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	n, tm := kit.ctx.Params.N(), int64(kit.ctx.T.Value)
	m, w := make([]int64, n), make([]int64, n)
	for i := range m {
		m[i] = int64(i * 7 % 16)
	}
	for i := 0; i < n; i += 97 {
		w[i] = int64(i%15) - 7
	}
	w[n-1] = -5 // every term but the constant one wraps
	pt, err := kit.ecd.EncodeCoeffs(m)
	if err != nil {
		t.Fatal(err)
	}
	out := kit.ev.MulPlainQ(kit.enc.Encrypt(pt), kit.ctx.PrepareMulQ(w))
	want := make([]int64, n)
	for j, wj := range w {
		if wj == 0 {
			continue
		}
		for i, mi := range m {
			if k := i + j; k < n {
				want[k] += mi * wj
			} else {
				want[k-n] -= mi * wj
			}
		}
	}
	got := kit.ecd.DecodeCoeffs(kit.dec.Decrypt(out))
	for k := range want {
		if r := ((want[k]%tm)+tm)%tm - got[k]; r != 0 && r != tm {
			t.Fatalf("coefficient %d: %d, the negacyclic product is %d", k, got[k], want[k])
		}
	}

	a, b := rampUints(n, 50), rampUints(n, 7)
	ptA, _ := kit.ecd.EncodeUints(a)
	ptB, _ := kit.ecd.EncodeUints(b)
	slots := kit.dec.DecryptUints(kit.ev.MulPlain(kit.enc.Encrypt(ptA), kit.ev.PrepareMul(ptB)))
	for i := range slots {
		if slots[i] != a[i]*b[i]%kit.ctx.T.Value {
			t.Fatalf("MulPlain slot %d: %d, want %d", i, slots[i], a[i]*b[i])
		}
	}
}

// TestMulPlainQRefusesDroppedCiphertext: a product over Q needs the
// ciphertext at every data prime, as MulPlain does, in every build.
func TestMulPlainQRefusesDroppedCiphertext(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	ct, err := kit.enc.EncryptUints([]uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	small, err := kit.ev.ModSwitchDown(ct)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "full-modulus") {
			t.Fatalf("MulPlainQ of a dropped ciphertext: recovered %q, want the full-modulus refusal", msg)
		}
	}()
	kit.ev.MulPlainQ(small, kit.ctx.PrepareMulQ([]int64{1}))
}

// TestMulPlainQTilesMatchesMulPlainQ: the tiles' products, which share one
// forward transform of the input, are byte for byte the MulPlainQ of each
// kernel alone, at one, two and three tiles; the input is left as it was.
func TestMulPlainQTilesMatchesMulPlainQ(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	n := kit.ctx.Params.N()
	m := make([]int64, n)
	for i := range m {
		m[i] = int64(i*5%16) - 8
	}
	pt, err := kit.ecd.EncodeCoeffs(m)
	if err != nil {
		t.Fatal(err)
	}
	ct := kit.enc.Encrypt(pt)
	before := kit.ev.MulPlainQ(ct, kit.ctx.PrepareMulQ([]int64{1}))
	var ks []*PlaintextQ
	for tile := 0; tile < 3; tile++ {
		w := make([]int64, n)
		for i := tile; i < n; i += 61 + tile {
			w[i] = int64((i+tile)%15) - 7
		}
		ks = append(ks, kit.ctx.PrepareMulQ(w))
		outs := kit.ev.MulPlainQTiles(ct, ks)
		if len(outs) != len(ks) {
			t.Fatalf("%d tiles gave %d outputs", len(ks), len(outs))
		}
		for j, k := range ks {
			want := kit.ev.MulPlainQ(ct, k)
			for c := range want.Value {
				if !kit.ctx.RingQ.Equal(outs[j].Value[c], want.Value[c]) {
					t.Fatalf("%d tiles: tile %d component %d differs from MulPlainQ of its kernel", len(ks), j, c)
				}
			}
		}
	}
	after := kit.ev.MulPlainQ(ct, kit.ctx.PrepareMulQ([]int64{1}))
	for c := range before.Value {
		if !kit.ctx.RingQ.Equal(before.Value[c], after.Value[c]) {
			t.Fatalf("component %d of the input changed under MulPlainQTiles", c)
		}
	}
}

// TestProductC1IsTheReplysC1 is the client's half of a product reply, at
// every level of a three-prime chain: the c1 ProductC1 rebuilds from the
// seeded upload's a and the kernel is, once transformed back, word for
// word the c1 of MulPlainQ(upload, k) switched down drop times; the
// server's c0-alone product switches to that output's c0; the reply
// completed with the rebuilt c1, left in the NTT domain, decrypts to every
// coefficient the full one does; and DecryptAt scales only the
// coefficients asked for, leaving the others as they were.
func TestProductC1IsTheReplysC1(t *testing.T) {
	kit := newTestKit(t, Parameters{LogN: 11, QBits: []int{30, 30, 30}, PBits: 31, TBits: 18, Sigma: 3.2})
	ctx, n := kit.ctx, kit.ctx.Params.N()
	m, w := make([]int64, n), make([]int64, n)
	for i := range m {
		m[i] = int64(i * 5 % 16)
	}
	for i := 0; i < n; i += 31 {
		w[i] = int64(i%15) - 7
	}
	pt, err := kit.ecd.EncodeCoeffs(m)
	if err != nil {
		t.Fatal(err)
	}
	sym := NewSymmetricEncryptor(ctx, kit.sk, [32]byte{17})
	sct := sym.EncryptSeeded(pt)
	half := &Ciphertext{Value: []*ring.Poly{ctx.RingQ.CopyPoly(sct.C0)}}
	full, k := sct.Expand(ctx), ctx.PrepareMulQ(w)
	idx := []int{0, 1, 2, 100, n - 1}
	for drop := 0; drop <= ctx.MaxDrop(); drop++ {
		small, smallHalf := kit.ev.MulPlainQ(full, k), kit.ev.MulPlainQ(half, k)
		for d := 0; d < drop; d++ {
			if small, err = kit.ev.ModSwitchDown(small); err != nil {
				t.Fatal(err)
			}
			if smallHalf, err = kit.ev.ModSwitchDown(smallHalf); err != nil {
				t.Fatal(err)
			}
		}
		r := ctx.RingAtDrop(drop)
		c1 := ctx.ProductC1(sym.A(), k, drop)
		back := r.CopyPoly(c1)
		r.INTT(back)
		if !c1.IsNTT() || !r.Equal(back, small.Value[1]) {
			t.Fatalf("drop %d: the rebuilt c1 is not the reply's", drop)
		}
		if len(smallHalf.Value) != 1 || !r.Equal(smallHalf.Value[0], small.Value[0]) {
			t.Fatalf("drop %d: the c0-alone product is not the reply's c0", drop)
		}
		plain := kit.dec.Decrypt(small)
		got := kit.dec.Decrypt(&Ciphertext{Value: []*ring.Poly{smallHalf.Value[0], c1}, Drop: drop})
		if !ctx.RingT.Equal(got.Poly, plain.Poly) {
			t.Fatalf("drop %d: the reply completed with an NTT-domain c1 decrypts differently", drop)
		}
		at := &Plaintext{Poly: ctx.RingT.NewPoly()}
		for j := range at.Poly.Coeffs[0] {
			at.Poly.Coeffs[0][j] = 7
		}
		kit.dec.DecryptAt(small, idx, at)
		for j, v := range at.Poly.Coeffs[0] {
			want := uint64(7)
			if slices.Contains(idx, j) {
				want = plain.Poly.Coeffs[0][j]
			}
			if v != want {
				t.Fatalf("drop %d: DecryptAt leaves coefficient %d at %d, want %d", drop, j, v, want)
			}
		}
	}
}
