package core

import (
	"strings"
	"testing"

	"choco/internal/bfv"
	"choco/internal/sampling"
)

type kit struct {
	ctx *bfv.Context
	sk  *bfv.SecretKey
	enc *bfv.Encryptor
	// sym, when set, encrypts in encrypt's place, seeded under the
	// secret key as the inference client does.
	sym *bfv.SymmetricEncryptor
	// uploadBits, when set, rounds sym's c0 to that many bits and lifts it
	// back, as a product layer's upload travels (roundTrip).
	uploadBits int
	dec        *bfv.Decryptor
	ecd        *bfv.Encoder
	ev         *bfv.Evaluator
}

func newKit(t testing.TB, rotSteps []int) *kit {
	t.Helper()
	ctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	kg := bfv.NewKeyGenerator(ctx, [32]byte{11})
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	relin := kg.GenRelinearizationKey(sk)
	galois := kg.GenRotationKeys(sk, rotSteps...)
	return &kit{
		ctx: ctx,
		sk:  sk,
		enc: bfv.NewEncryptor(ctx, pk, [32]byte{12}),
		dec: bfv.NewDecryptor(ctx, sk),
		ecd: bfv.NewEncoder(ctx),
		ev:  bfv.NewEvaluator(ctx, relin, galois),
	}
}

// encrypt encrypts a packed vector the way its layer reads it: plaintext
// coefficients under the product packing, batch-encoded slots under the
// slot packing.
func (k *kit) encrypt(t testing.TB, packed []int64, coeffs bool) *bfv.Ciphertext {
	t.Helper()
	if !coeffs {
		ct, err := k.enc.EncryptInts(packed)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	pt, err := k.ecd.EncodeCoeffs(packed)
	if err != nil {
		t.Fatal(err)
	}
	if k.sym != nil {
		sct := k.sym.EncryptSeeded(pt)
		if k.uploadBits > 0 {
			roundTrip(t, k.ctx, sct.C0, k.uploadBits)
		}
		return sct.Expand(k.ctx)
	}
	return k.enc.Encrypt(pt)
}

// decrypt opens a layer output in its packing.
func (k *kit) decrypt(ct *bfv.Ciphertext, coeffs bool) []int64 {
	if !coeffs {
		return k.dec.DecryptInts(ct)
	}
	return k.ecd.DecodeCoeffs(k.dec.Decrypt(ct))
}

// fcOnSlots returns the FC layer on the slot packing whatever its shape:
// the executor's tests keep the geometries they pin on shapes the product
// packing now takes.
func fcOnSlots(t testing.TB, f *FC) *FC {
	t.Helper()
	s := *f
	s.product, s.kernel, s.plains = false, nil, NewPlainCache(0)
	if err := s.layoutSlots(); err != nil {
		t.Fatal(err)
	}
	return &s
}

func synthImage(src *sampling.Source, channels, pixels int, maxAbs int64) [][]int64 {
	img := make([][]int64, channels)
	for c := range img {
		img[c] = make([]int64, pixels)
		for i := range img[c] {
			img[c][i] = int64(src.Intn(int(2*maxAbs+1))) - maxAbs
		}
	}
	return img
}

func synthConvWeights(src *sampling.Source, outC, inC, k int, maxAbs int64) [][][]int64 {
	w := make([][][]int64, outC)
	for o := range w {
		w[o] = make([][]int64, inC)
		for c := range w[o] {
			w[o][c] = make([]int64, k)
			for i := range w[o][c] {
				w[o][c][i] = int64(src.Intn(int(2*maxAbs+1))) - maxAbs
			}
		}
	}
	return w
}

func TestConv2DSpecValidation(t *testing.T) {
	if _, err := NewConv2D(ConvSpec{InH: 8, InW: 8, InC: 1, KH: 2, KW: 2, OutC: 1}, nil, 1024); err == nil {
		t.Error("expected error for even kernel")
	}
	spec := ConvSpec{InH: 8, InW: 8, InC: 1, KH: 3, KW: 3, OutC: 1}
	if _, err := NewConv2D(spec, nil, 1024); err == nil {
		t.Error("expected error for missing weights")
	}
	// Too many channels for one polynomial: 64·10·10 coefficients.
	src := sampling.NewSource([32]byte{1}, "w")
	w := synthConvWeights(src, 4, 64, 9, 3)
	spec = ConvSpec{InH: 8, InW: 8, InC: 64, KH: 3, KW: 3, OutC: 4}
	if _, err := NewConv2D(spec, w, 1024); err == nil || !strings.Contains(err.Error(), "C·Hp·Wp = 64·10·10 = 6400 coefficients, more than N = 2048") {
		t.Errorf("channel overflow: %v, want the C·Hp·Wp > N refusal", err)
	}
}

func TestConvMACs(t *testing.T) {
	spec := ConvSpec{InH: 28, InW: 28, InC: 1, KH: 5, KW: 5, OutC: 32}
	if got := spec.MACs(); got != 28*28*1*32*25 {
		t.Errorf("MACs = %d", got)
	}
}

// TestEncryptedConvMatchesPlain runs one layer shape on the product
// packing.
func TestEncryptedConvMatchesPlain(t *testing.T) {
	// 8×8 image, 2 input channels, 3 output channels, 3×3 kernel.
	spec := ConvSpec{InH: 8, InW: 8, InC: 2, KH: 3, KW: 3, OutC: 3}
	src := sampling.NewSource([32]byte{2}, "conv-test")
	weights := synthConvWeights(src, spec.OutC, spec.InC, 9, 3)
	image := synthImage(src, spec.InC, spec.InH*spec.InW, 7)

	k := newKit(t, nil)
	slots := k.ctx.Params.Slots()
	conv, err := NewConv2D(spec, weights, slots/2)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := conv.PackInput(image, slots)
	if err != nil {
		t.Fatal(err)
	}
	outs, ops, err := conv.Apply(k.ev, k.ecd, k.encrypt(t, packed, true), slots)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != conv.Groups() {
		t.Fatalf("got %d output groups, want %d", len(outs), conv.Groups())
	}
	t.Logf("conv ops: %+v groups=%d", ops, conv.Groups())
	if ops.CtMults != 0 {
		t.Error("convolution must not use ciphertext multiplies")
	}

	want := PlainConv2D(spec, weights, image)
	for o := 0; o < spec.OutC; o++ {
		got := conv.ExtractOutput(k.decrypt(outs[o/conv.GroupSize()], true), o)
		for i := range got {
			if got[i] != want[o][i] {
				t.Fatalf("channel %d pixel %d: got %d want %d", o, i, got[i], want[o][i])
			}
		}
	}
	// Noise budget must survive the layer.
	for _, out := range outs {
		if b := bfv.NoiseBudget(k.ctx, k.sk, out); b <= 0 {
			t.Error("noise budget exhausted by convolution")
		}
	}
}

// TestEncryptedFCMatchesPlain runs one layer shape on both packings: the
// product packing it takes, and the slot packing.
func TestEncryptedFCMatchesPlain(t *testing.T) {
	in, out := 48, 10
	src := sampling.NewSource([32]byte{4}, "fc-test")
	weights := make([][]int64, out)
	for o := range weights {
		weights[o] = make([]int64, in)
		for i := range weights[o] {
			weights[o][i] = int64(src.Intn(15)) - 7
		}
	}
	x := make([]int64, in)
	for i := range x {
		x[i] = int64(src.Intn(31)) - 15
	}

	ctxProbe, _ := bfv.NewContext(bfv.PresetTest())
	rowSize := ctxProbe.Params.N() / 2
	product, err := NewFC(in, out, weights, rowSize)
	if err != nil {
		t.Fatal(err)
	}
	if !product.Product() {
		t.Fatal("the layer does not take the product packing")
	}
	for _, fc := range []*FC{product, fcOnSlots(t, product)} {
		k := newKit(t, fc.RotationSteps())
		packed, err := fc.PackInput(x, k.ctx.Params.Slots())
		if err != nil {
			t.Fatal(err)
		}
		res, ops, err := fc.Apply(k.ev, k.ecd, k.encrypt(t, packed, fc.Product()), k.ctx.Params.Slots())
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("fc ops: %+v (product=%v P=%d B=%d G=%d)", ops, fc.Product(), fc.P, fc.B, fc.G)
		got := fc.ExtractOutput(k.decrypt(res, fc.Product()), k.ctx.T.Value)
		want := PlainFC(weights, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("product=%v output %d: got %d want %d", fc.Product(), i, got[i], want[i])
			}
		}
		// BSGS keeps rotations near 2√P rather than P.
		if ops.Rotations > 2*(fc.B+fc.G) {
			t.Errorf("BSGS rotations %d too high for P=%d", ops.Rotations, fc.P)
		}
	}
}

// TestFCFoldWrapsModT drives the client fold where it has to do modular
// work: every slot of a 64×4 layer on the slot packing holds a partial sum over 4 columns of
// ±150·150 products, beyond t/2 at the test preset, so the decoded
// partials are wrapped representatives; the signs alternate by column
// window so each true output is small. The fold must still equal PlainFC.
func TestFCFoldWrapsModT(t *testing.T) {
	const in, out = 64, 4
	src := sampling.NewSource([32]byte{5}, "fc-fold-wrap")
	weights := make([][]int64, out)
	for o := range weights {
		weights[o] = make([]int64, in)
		for i := range weights[o] {
			weights[o][i] = 150 + int64(src.Intn(7)) - 3
			if i/8%2 == 1 {
				weights[o][i] = -weights[o][i]
			}
		}
	}
	x := make([]int64, in)
	for i := range x {
		x[i] = 150
	}
	ctxProbe, _ := bfv.NewContext(bfv.PresetTest())
	fc, err := NewFC(in, out, weights, ctxProbe.Params.N()/2)
	if err != nil {
		t.Fatal(err)
	}
	fc = fcOnSlots(t, fc)
	k := newKit(t, fc.RotationSteps())
	packed, err := fc.PackInput(x, k.ctx.Params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := k.enc.EncryptInts(packed)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := fc.Apply(k.ev, k.ecd, ct, k.ctx.Params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	decoded := k.dec.DecryptInts(res)
	wrapped := 0
	for j := 0; j < fc.P; j++ {
		var partial int64
		for d := 0; d < fc.Po; d++ {
			partial += weights[j%fc.Po][(j+d)%fc.P] * x[(j+d)%fc.P]
		}
		if decoded[j] != partial {
			wrapped++
		}
	}
	if wrapped == 0 {
		t.Fatalf("no partial sum wrapped mod t = %d: the case does not test the fold", k.ctx.T.Value)
	}
	got, want := fc.ExtractOutput(decoded, k.ctx.T.Value), PlainFC(weights, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output %d: folded %d from %d wrapped partials, PlainFC %d", i, got[i], wrapped, want[i])
		}
	}
}

func TestFCValidation(t *testing.T) {
	if _, err := NewFC(0, 4, nil, 1024); err == nil {
		t.Error("expected error for zero dims")
	}
	if _, err := NewFC(4, 2, [][]int64{{1, 2, 3, 4}}, 1024); err == nil {
		t.Error("expected error for row count")
	}
	if _, err := NewFC(2048, 10, make([][]int64, 10), 1024); err == nil {
		t.Error("expected error for dimension exceeding row size")
	}
}

func TestBSGSRotationCounts(t *testing.T) {
	for _, p := range []int{16, 64, 256, 1024, 4096} {
		bs := BSGSRotations(p)
		naive := DiagonalRotations(p)
		if bs >= naive && p > 16 {
			t.Errorf("P=%d: BSGS %d not better than naive %d", p, bs, naive)
		}
	}
	if BSGSRotations(16) != 3+3 {
		t.Errorf("BSGS(16) = %d, want 6", BSGSRotations(16))
	}
}

func TestOpCountsAndStats(t *testing.T) {
	var a, b OpCounts
	a = OpCounts{Rotations: 1, PlainMults: 2, CtMults: 3, Adds: 4}
	b.Add(a)
	b.Add(a)
	if b.Rotations != 2 || b.Adds != 8 {
		t.Errorf("OpCounts.Add wrong: %+v", b)
	}
	var s, o Stats
	o = Stats{Encryptions: 1, Decryptions: 2, UpBytes: 100, DownBytes: 50, UpCiphertexts: 1, DownCiphertexts: 2, Server: a}
	s.Merge(o)
	s.Merge(o)
	if s.TotalBytes() != 300 || s.Encryptions != 2 || s.Server.CtMults != 6 {
		t.Errorf("Stats.Merge wrong: %+v", s)
	}
}
