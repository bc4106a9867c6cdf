package core

import (
	"testing"

	"choco/internal/bfv"
	"choco/internal/sampling"
)

type kit struct {
	ctx *bfv.Context
	sk  *bfv.SecretKey
	enc *bfv.Encryptor
	dec *bfv.Decryptor
	ecd *bfv.Encoder
	ev  *bfv.Evaluator
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
	// Too many channels for the row.
	src := sampling.NewSource([32]byte{1}, "w")
	w := synthConvWeights(src, 4, 64, 9, 3)
	spec = ConvSpec{InH: 8, InW: 8, InC: 64, KH: 3, KW: 3, OutC: 4}
	if _, err := NewConv2D(spec, w, 1024); err == nil {
		t.Error("expected error for channel overflow")
	}
}

func TestConvMACs(t *testing.T) {
	spec := ConvSpec{InH: 28, InW: 28, InC: 1, KH: 5, KW: 5, OutC: 32}
	if got := spec.MACs(); got != 28*28*1*32*25 {
		t.Errorf("MACs = %d", got)
	}
}

func TestEncryptedConvMatchesPlain(t *testing.T) {
	// 8×8 image, 2 input channels, 3 output channels, 3×3 kernel.
	spec := ConvSpec{InH: 8, InW: 8, InC: 2, KH: 3, KW: 3, OutC: 3}
	src := sampling.NewSource([32]byte{2}, "conv-test")
	weights := synthConvWeights(src, spec.OutC, spec.InC, 9, 3)
	image := synthImage(src, spec.InC, spec.InH*spec.InW, 7)

	ctxProbe, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	rowSize := ctxProbe.Params.N() / 2
	conv, err := NewConv2D(spec, weights, rowSize)
	if err != nil {
		t.Fatal(err)
	}
	k := newKit(t, conv.RotationSteps())

	packed, err := conv.PackInput(image, k.ctx.Params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := k.enc.EncryptInts(packed)
	if err != nil {
		t.Fatal(err)
	}
	outs, ops, err := conv.Apply(k.ev, k.ecd, ct, k.ctx.Params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != conv.Groups() {
		t.Fatalf("got %d output groups, want %d", len(outs), conv.Groups())
	}
	t.Logf("conv ops: %+v groups=%d Cb=%d stride=%d", ops, conv.Groups(), conv.Cb, conv.Layout.Stride)
	if ops.CtMults != 0 {
		t.Error("convolution must not use ciphertext multiplies")
	}

	want := PlainConv2D(spec, weights, image)
	for o := 0; o < spec.OutC; o++ {
		g := o / conv.GroupSize()
		decoded := k.dec.DecryptInts(outs[g])
		got := conv.ExtractOutput(decoded, o)
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

func TestConvRotationSharingAcrossGroups(t *testing.T) {
	// With OutC spanning multiple groups the rotation count must not
	// scale with groups (shared rotations are the point of the
	// algorithm).
	spec := ConvSpec{InH: 4, InW: 4, InC: 2, KH: 3, KW: 3, OutC: 12}
	src := sampling.NewSource([32]byte{3}, "share")
	weights := synthConvWeights(src, spec.OutC, spec.InC, 9, 2)
	conv, err := NewConv2D(spec, weights, 256)
	if err != nil {
		t.Fatal(err)
	}
	if conv.Groups() < 2 {
		t.Skip("layout fits in one group; widen OutC")
	}
	maxRot := conv.Cb * spec.KH * spec.KW
	if len(conv.RotationSteps()) > maxRot {
		t.Errorf("rotation steps %d exceed Cb·K² = %d", len(conv.RotationSteps()), maxRot)
	}
}

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
	fc, err := NewFC(in, out, weights, rowSize)
	if err != nil {
		t.Fatal(err)
	}
	k := newKit(t, fc.RotationSteps())
	packed, err := fc.PackInput(x, k.ctx.Params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := k.enc.EncryptInts(packed)
	if err != nil {
		t.Fatal(err)
	}
	res, ops, err := fc.Apply(k.ev, k.ecd, ct, k.ctx.Params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fc ops: %+v (P=%d B=%d G=%d)", ops, fc.P, fc.B, fc.G)
	got := fc.ExtractOutput(k.dec.DecryptInts(res), k.ctx.T.Value)
	want := PlainFC(weights, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output %d: got %d want %d", i, got[i], want[i])
		}
	}
	// BSGS keeps rotations near 2√P rather than P.
	if ops.Rotations > 2*(fc.B+fc.G) {
		t.Errorf("BSGS rotations %d too high for P=%d", ops.Rotations, fc.P)
	}
}

// TestFCFoldWrapsModT drives the client fold where it has to do modular
// work: every slot of a 64×4 layer holds a partial sum over 4 columns of
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
