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
