package ckks

import (
	"math"
	"math/cmplx"
	"testing"

	"choco/internal/par"
	"choco/internal/ring"
)

type testKit struct {
	ctx *Context
	sk  *SecretKey
	pk  *PublicKey
	enc *Encryptor
	dec *Decryptor
	ecd *Encoder
	ev  *Evaluator
}

func newTestKit(t testing.TB, params Parameters, rotSteps ...int) *testKit {
	t.Helper()
	ctx, err := NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, [32]byte{4, 5, 6})
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	relin := kg.GenRelinearizationKey(sk)
	var galois map[uint64]*GaloisKey
	if len(rotSteps) > 0 {
		galois = kg.GenRotationKeys(sk, rotSteps...)
	}
	return &testKit{
		ctx: ctx,
		sk:  sk,
		pk:  pk,
		enc: NewEncryptor(ctx, pk, [32]byte{8}),
		dec: NewDecryptor(ctx, sk),
		ecd: NewEncoder(ctx),
		ev:  NewEvaluator(ctx, relin, galois),
	}
}

func assertClose(t *testing.T, got, want []float64, tol float64, label string) {
	t.Helper()
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: slot %d: got %v want %v (tol %v)", label, i, got[i], want[i], tol)
		}
	}
}

func rampFloats(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i%17) - 8 + 0.25
	}
	return out
}

func TestParametersValidate(t *testing.T) {
	if err := PresetTest().Validate(); err != nil {
		t.Errorf("PresetTest invalid: %v", err)
	}
	bad := PresetTest()
	bad.LogScale = bad.QBits[0]
	if err := bad.Validate(); err == nil {
		t.Error("expected error for LogScale >= q0 bits")
	}
	bad = PresetTest()
	bad.QBits = nil
	if err := bad.Validate(); err == nil {
		t.Error("expected error for empty chain")
	}
}

func TestPresetCSize(t *testing.T) {
	// Table 3: CKKS N=8192 {60,60,60} → 262,144-byte ciphertext.
	if got := PresetC().CiphertextBytes(); got != 262144 {
		t.Errorf("Preset C ciphertext = %d bytes, want 262144", got)
	}
}

func TestEncodeDecodePrecision(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	values := rampFloats(kit.ctx.Params.Slots())
	pt, err := kit.ecd.EncodeFloats(values, kit.ctx.Params.MaxLevel(), kit.ctx.Params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	got := kit.ecd.DecodeFloats(pt)
	assertClose(t, got, values, 1e-5, "encode/decode")
}

func TestEncodeComplexRoundTrip(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	nh := kit.ctx.Params.Slots()
	values := make([]complex128, nh)
	for i := range values {
		values[i] = complex(math.Sin(float64(i)), math.Cos(float64(i)*0.7))
	}
	pt, err := kit.ecd.EncodeComplex(values, kit.ctx.Params.MaxLevel(), kit.ctx.Params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	got := kit.ecd.DecodeComplex(pt)
	for i := range values {
		if cmplx.Abs(got[i]-values[i]) > 1e-5 {
			t.Fatalf("slot %d: got %v want %v", i, got[i], values[i])
		}
	}
}

func TestEncodeTooManySlots(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	_, err := kit.ecd.EncodeFloats(make([]float64, kit.ctx.Params.Slots()+1), 0, 1024)
	if err == nil {
		t.Error("expected error for too many slots")
	}
}

func TestEncryptDecryptPrecision(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	values := rampFloats(kit.ctx.Params.Slots())
	ct, err := kit.enc.EncryptFloats(values)
	if err != nil {
		t.Fatal(err)
	}
	got := kit.dec.DecryptFloats(ct)
	assertClose(t, got, values, 1e-4, "encrypt/decrypt")
	if kit.enc.OpCount != 1 || kit.dec.OpCount != 1 {
		t.Error("op counters not incremented")
	}
}

func TestHomomorphicAddSub(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	a := rampFloats(64)
	b := make([]float64, 64)
	for i := range b {
		b[i] = float64(i) * 0.5
	}
	cta, _ := kit.enc.EncryptFloats(a)
	ctb, _ := kit.enc.EncryptFloats(b)
	sum, err := kit.ev.Add(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := kit.ev.Sub(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := make([]float64, 64)
	wantDiff := make([]float64, 64)
	for i := range a {
		wantSum[i] = a[i] + b[i]
		wantDiff[i] = a[i] - b[i]
	}
	assertClose(t, kit.dec.DecryptFloats(sum)[:64], wantSum, 1e-4, "add")
	assertClose(t, kit.dec.DecryptFloats(diff)[:64], wantDiff, 1e-4, "sub")
}

func TestAddScaleMismatchRejected(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	a, _ := kit.enc.EncryptFloats([]float64{1})
	b, _ := kit.enc.EncryptFloats([]float64{2})
	b.Scale *= 2
	if _, err := kit.ev.Add(a, b); err == nil {
		t.Error("expected scale mismatch error")
	}
}

// TestMulPlain multiplies by a plaintext the way internal/core's executor
// does: the ciphertext lifted into the key ring beside a plaintext encoded
// over it (EncodeFloatsQP), one multiply-accumulate and one divide-by-P.
// Evaluator.MulPlain, over the data primes alone, is TestEvaluatorMulPlain's.
func TestMulPlain(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	a := rampFloats(32)
	w := make([]float64, 32)
	for i := range w {
		w[i] = 0.1 * float64(i+1)
	}
	ct, _ := kit.enc.EncryptFloats(a)
	scale := kit.ctx.Params.DefaultScale()
	pt, err := kit.ecd.EncodeFloatsQP(w, ct.Level, scale)
	if err != nil {
		t.Fatal(err)
	}
	acc := kit.ctx.NewNTTAccumulator(ct.Level)
	kit.ctx.MulPlainAcc(acc, []*ring.Poly{kit.ctx.LiftNTT(ct.Level, ct.Value[0]), kit.ctx.LiftNTT(ct.Level, ct.Value[1])}, pt)
	c0, c1 := kit.ctx.FromNTT(acc)
	prod := &Ciphertext{Value: []*ring.Poly{c0, c1}, Level: ct.Level, Scale: ct.Scale * scale}
	want := make([]float64, 32)
	for i := range want {
		want[i] = a[i] * w[i]
	}
	assertClose(t, kit.dec.DecryptFloats(prod)[:32], want, 1e-3, "mulplain")
}

func TestMulRelinAndRescale(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	a := []float64{1.5, -2, 3, 0.25}
	b := []float64{2, 4, -1, 8}
	cta, _ := kit.enc.EncryptFloats(a)
	ctb, _ := kit.enc.EncryptFloats(b)
	prod, err := kit.ev.MulRelin(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, -8, -3, 2}
	assertClose(t, kit.dec.DecryptFloats(prod)[:4], want, 1e-3, "mulrelin")

	// Rescale drops a level and restores the scale magnitude.
	rs, err := kit.ev.Rescale(prod)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Level != prod.Level-1 {
		t.Errorf("rescale level = %d, want %d", rs.Level, prod.Level-1)
	}
	assertClose(t, kit.dec.DecryptFloats(rs)[:4], want, 1e-3, "rescaled")
	if _, err := kit.ev.Rescale(rs); err == nil {
		t.Error("expected error rescaling below level 0")
	}
}

// TestMulScalarAllocs pins MulScalar's allocation count at today's: the
// copy of the ciphertext it scales, and for a negative constant the two
// negations; an arbitrary-precision rounding of the constant shows.
func TestMulScalarAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	old := par.Parallelism()
	par.SetParallelism(1)
	defer par.SetParallelism(old)
	kit := newTestKit(t, PresetTest())
	ct, err := kit.enc.EncryptFloats([]float64{1, -2, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for c, limit := range map[float64]float64{0.75: 10, -1.5: 12} {
		a := testing.AllocsPerRun(16, func() { kit.ev.MulScalar(ct, c) })
		t.Logf("MulScalar by %v: %.1f objects/op", c, a)
		if a > limit {
			t.Errorf("MulScalar by %v allocates %.1f objects/op, want at most %.0f", c, a, limit)
		}
	}
}

func TestMulScalar(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	a := []float64{1, -2, 0.5}
	ct, _ := kit.enc.EncryptFloats(a)
	out, err := kit.ev.MulScalar(ct, -1.5)
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, kit.dec.DecryptFloats(out)[:3], []float64{-1.5, 3, -0.75}, 1e-3, "mulscalar")

	// A degree-2 tensor is scaled in all three components: decrypted
	// under 1, s and s², the scaled tensor is the scaled product. The
	// chain holds the product's 2^120 scale.
	deep := newTestKit(t, Parameters{LogN: 11, QBits: []int{50, 40, 40, 40}, PBits: 51, LogScale: 40, Sigma: 3.2})
	b := []float64{2, 0.25, -4}
	x, _ := deep.enc.EncryptFloats(a)
	y, _ := deep.enc.EncryptFloats(b)
	tensor, err := deep.ev.Mul(x, y)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := deep.ev.MulScalar(tensor, -1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(scaled.Value) != 3 {
		t.Fatalf("MulScalar of a degree-2 ciphertext has %d components", len(scaled.Value))
	}
	assertClose(t, deep.dec.DecryptFloats(scaled)[:3], []float64{-3, 0.75, 3}, 1e-3, "mulscalar degree 2")
}

func TestRotateLeft(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1, 3, -1)
	nh := kit.ctx.Params.Slots()
	values := rampFloats(nh)
	ct, _ := kit.enc.EncryptFloats(values)
	for _, steps := range []int{1, 3, -1} {
		rot, err := kit.ev.RotateLeft(ct, steps)
		if err != nil {
			t.Fatal(err)
		}
		got := kit.dec.DecryptFloats(rot)
		for i := 0; i < nh; i++ {
			src := ((i+steps)%nh + nh) % nh
			if math.Abs(got[i]-values[src]) > 1e-3 {
				t.Fatalf("steps=%d slot %d: got %v want %v", steps, i, got[i], values[src])
			}
		}
	}
}

func TestConjugate(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1)
	nh := kit.ctx.Params.Slots()
	values := make([]complex128, nh)
	for i := range values {
		values[i] = complex(float64(i%7), float64(i%5)-2)
	}
	pt, _ := kit.ecd.EncodeComplex(values, kit.ctx.Params.MaxLevel(), kit.ctx.Params.DefaultScale())
	ct := kit.enc.Encrypt(pt)
	conj, err := kit.ev.Conjugate(ct)
	if err != nil {
		t.Fatal(err)
	}
	got := kit.dec.DecryptComplex(conj)
	for i := range values {
		if cmplx.Abs(got[i]-cmplx.Conj(values[i])) > 1e-3 {
			t.Fatalf("slot %d: got %v want %v", i, got[i], cmplx.Conj(values[i]))
		}
	}
}

func TestRotationAtLowerLevel(t *testing.T) {
	// Rotation after rescale exercises level-aware key switching.
	kit := newTestKit(t, PresetTest(), 1)
	values := rampFloats(16)
	cta, _ := kit.enc.EncryptFloats(values)
	sq, err := kit.ev.MulRelin(cta, cta)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := kit.ev.Rescale(sq)
	if err != nil {
		t.Fatal(err)
	}
	rot, err := kit.ev.RotateLeft(rs, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := kit.dec.DecryptFloats(rot)
	for i := 0; i < 15; i++ {
		want := values[i+1] * values[i+1]
		if math.Abs(got[i]-want) > 1e-2 {
			t.Fatalf("slot %d: got %v want %v", i, got[i], want)
		}
	}
}

func TestDropLevel(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	ct, _ := kit.enc.EncryptFloats([]float64{1, 2, 3})
	low, err := kit.ev.DropLevel(ct, 0)
	if err != nil {
		t.Fatal(err)
	}
	if low.Level != 0 {
		t.Fatalf("level = %d", low.Level)
	}
	assertClose(t, kit.dec.DecryptFloats(low)[:3], []float64{1, 2, 3}, 1e-4, "droplevel")
	if _, err := kit.ev.DropLevel(low, 1); err == nil {
		t.Error("expected error raising level")
	}
}

func TestLowerLevelEncryption(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	pt, _ := kit.ecd.EncodeFloats([]float64{7, -3}, 0, kit.ctx.Params.DefaultScale())
	ct := kit.enc.Encrypt(pt)
	if ct.Level != 0 {
		t.Fatalf("level = %d, want 0", ct.Level)
	}
	assertClose(t, kit.dec.DecryptFloats(ct)[:2], []float64{7, -3}, 1e-3, "low-level encrypt")
}

func TestCiphertextBytesAtLevel(t *testing.T) {
	p := PresetC()
	if p.CiphertextBytesAtLevel(0) != 2*8192*8 {
		t.Errorf("level-0 bytes = %d", p.CiphertextBytesAtLevel(0))
	}
	if p.CiphertextBytesAtLevel(p.MaxLevel()) != p.CiphertextBytes() {
		t.Error("full-level size mismatch")
	}
}
