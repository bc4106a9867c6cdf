package rlwe

import (
	"testing"

	"choco/internal/ring"
)

// testContext is the chain of ckks.PresetTest: two 50-bit data primes
// and a 51-bit special prime at N = 2048.
func testContext(t testing.TB) *Context {
	t.Helper()
	ctx, err := NewContext("rlwe-test", 11, []int{50, 50}, 51, 3.2)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// encryptZero returns a fresh public-key encryption of zero at the top
// level and the secret key it decrypts under.
func encryptZero(ctx *Context) ([]*ring.Poly, *SecretKey) {
	kg := NewKeyGenerator(ctx, [32]byte{1, 2, 3})
	sk := kg.GenSecretKey()
	enc := NewEncryptor(ctx, kg.GenPublicKey(sk), [32]byte{9})
	enc.Sample()
	value := []*ring.Poly{ctx.RingQ.NewPoly(), ctx.RingQ.NewPoly()}
	for i := range ctx.RingQ.Moduli {
		enc.ZeroRow(i, value[0].Coeffs[i], value[1].Coeffs[i])
	}
	return value, sk
}

// TestEmbedDigitCopyMatchesReduce pins the embedding micro-optimization:
// when the source residue's modulus q_i does not exceed a target row's
// modulus, copying the already-reduced values verbatim must equal the
// old unconditional per-coefficient Reduce.
func TestEmbedDigitCopyMatchesReduce(t *testing.T) {
	ctx := testContext(t)
	rQP := ctx.RingQP
	value, _ := encryptZero(ctx)
	for i := range ctx.RingQ.Moduli {
		src := value[1].Coeffs[i]
		got := rQP.GetPoly()
		ctx.embedDigit(src, i, ctx.MaxLevel(), got)
		want := rQP.GetPoly()
		for j, m := range rQP.Moduli {
			dst := want.Coeffs[j]
			for k := range dst {
				dst[k] = m.Reduce(src[k])
			}
		}
		if !rQP.Equal(got, want) {
			t.Fatalf("digit %d: copy-optimized embedding differs from Reduce reference", i)
		}
		rQP.PutPoly(got)
		rQP.PutPoly(want)
	}
}

// TestZeroEncryptionPhaseIsSmall is the core's own round trip: the phase
// of a fresh encryption of zero is the encryption noise, a few bits wide,
// at the top level and with the top residue dropped.
func TestZeroEncryptionPhaseIsSmall(t *testing.T) {
	ctx := testContext(t)
	value, sk := encryptZero(ctx)
	for level := ctx.MaxLevel(); level >= 0; level-- {
		r := ctx.RingAtLevel(level)
		low := make([]*ring.Poly, len(value))
		for i, p := range value {
			low[i] = &ring.Poly{Coeffs: p.Coeffs[:level+1]}
		}
		acc := r.NewPoly()
		ctx.PhaseInto(sk, low, level, acc)
		if bits := r.InfNormBig(acc).BitLen(); bits > 16 {
			t.Errorf("level %d: phase of an encryption of zero is %d bits wide", level, bits)
		}
	}
}

// TestRotateNTTOwesOneModDown pins the QP-resident rotation at every level
// (BFV rotates at the top one only; the core is level-aware): it is Rotate
// stopped before its divide-by-P, so ModDownPair of it alone is Rotate's
// output byte for byte, and so is ModDownPair of LiftNTT for a polynomial
// that was never key-switched — its special-prime row is zero and P
// divides it exactly.
func TestRotateNTTOwesOneModDown(t *testing.T) {
	ctx := testContext(t)
	value, sk := encryptZero(ctx)
	g := ctx.RingQ.GaloisElementForRotation(3)
	gk := NewKeyGenerator(ctx, [32]byte{1, 2, 3}).GenGaloisKey(sk, g)
	for level := ctx.MaxLevel(); level >= 0; level-- {
		rQl := ctx.RingAtLevel(level)
		low := make([]*ring.Poly, len(value))
		for i, p := range value {
			low[i] = &ring.Poly{Coeffs: p.Coeffs[:level+1]}
		}
		var dc Decomposed
		ctx.Decompose(&dc, low, level)
		want0, want1 := dc.Rotate(gk)
		r0, r1 := dc.RotateNTT(gk)
		if r0.Coeffs[level+1][0] == 0 && r0.Coeffs[level+1][1] == 0 {
			t.Errorf("level %d: the resident rotation's special-prime row looks empty: did it pay a mod-down?", level)
		}
		got0, got1 := ctx.ModDownPair(level, r0, r1)
		if !rQl.Equal(got0, want0) || !rQl.Equal(got1, want1) {
			t.Errorf("level %d: RotateNTT divided by P differs from Rotate", level)
		}
		dc.Release()

		back0, back1 := ctx.ModDownPair(level, ctx.LiftNTT(level, low[0]), ctx.LiftNTT(level, low[1]))
		if !rQl.Equal(back0, low[0]) || !rQl.Equal(back1, low[1]) {
			t.Errorf("level %d: a lifted polynomial divided by P is not the polynomial", level)
		}
	}
}
