package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"choco/internal/bfv"
	"choco/internal/ring"
	"choco/internal/sampling"
)

// keylessKit is a session with no evaluation key at all, whose inputs are
// seeded symmetric encryptions as the inference client's are: a
// product-packed layer must run under it.
func keylessKit(t testing.TB, params bfv.Parameters, seed byte) *kit {
	t.Helper()
	ctx, err := bfv.NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	kg := bfv.NewKeyGenerator(ctx, [32]byte{100 + seed})
	sk := kg.GenSecretKey()
	return &kit{
		ctx: ctx,
		sk:  sk,
		enc: bfv.NewEncryptor(ctx, kg.GenPublicKey(sk), [32]byte{110 + seed}),
		dec: bfv.NewDecryptor(ctx, sk),
		ecd: bfv.NewEncoder(ctx),
		sym: bfv.NewSymmetricEncryptor(ctx, sk, [32]byte{120 + seed}),
		ev:  bfv.NewEvaluator(ctx, nil, nil),
	}
}

// productCase is one layer shape: a convolution, or an FC layer in×out
// when in > 0. With rounded set, run rounds the layer's upload as the
// wire does, to the width the rule gives its kernel (roundedWidth).
type productCase struct {
	name    string
	params  bfv.Parameters
	conv    ConvSpec
	in, out int
	rounded bool
}

// roundTrip replaces p, a coefficient-domain polynomial at some level of
// ctx's data ring, by what the peer of a rounded frame reads: p rounded
// to d bits at every coefficient and lifted back
// (bfv.Context.AppendRounded, LiftRounded).
func roundTrip(t testing.TB, ctx *bfv.Context, p *ring.Poly, d int) {
	t.Helper()
	n := len(p.Coeffs[0])
	if err := ring.UnpackFields(ctx.AppendRounded(nil, p, d, nil), n, uint(d), math.MaxUint64,
		func(j int, v uint64) { p.Coeffs[0][j] = v }); err != nil {
		t.Fatal(err)
	}
	ctx.LiftRounded(p, d, nil)
}

// kernelNorm is the bound on the ℓ2 norm of the layer's kernel
// polynomial that the upload width rule reads (nn's kernelNorms):
// √w·lim for the w weights, each within ±lim, of its largest output
// group — a convolution tile's ⌊N / (C·Hp·Wp)⌋ channels, an FC layer's
// every weight.
func (tc productCase) kernelNorm(lim int64) float64 {
	w := tc.in * tc.out
	if s := tc.conv; tc.in == 0 {
		tile := tc.params.N() / (s.InC * (s.InH + s.KH - 1) * (s.InW + s.KW - 1))
		w = min(tile, s.OutC) * s.InC * s.KH * s.KW
	}
	return math.Sqrt(float64(w)) * float64(lim)
}

// run builds the layer with weights in ±lim and inputs in ±lim, or in
// [0, 15] when acts is set (4-bit activations, as a network's image and
// its ReLU outputs are), checks that an FC layer takes the packing
// wantProduct names (a convolution has only the product packing), runs it
// encrypted (keyless under the product packing) and compares every output
// with the plaintext reference. It returns the session and the layer's
// output ciphertexts.
func (tc productCase) run(t *testing.T, src *sampling.Source, lim int64, acts, wantProduct bool) (*kit, []*bfv.Ciphertext) {
	t.Helper()
	draw := func() int64 { return int64(src.Intn(int(2*lim+1))) - lim }
	input := draw
	if acts {
		input = func() int64 { return int64(src.Intn(16)) }
	}
	k := keylessKit(t, tc.params, 1)
	slots := k.ctx.Params.Slots()
	if tc.in > 0 {
		w := make([][]int64, tc.out)
		for r := range w {
			w[r] = make([]int64, tc.in)
			for i := range w[r] {
				w[r][i] = draw()
			}
		}
		x := make([]int64, tc.in)
		for i := range x {
			x[i] = input()
		}
		fc, err := NewFC(tc.in, tc.out, w, slots/2)
		if err != nil {
			t.Fatal(err)
		}
		if fc.Product() != wantProduct {
			t.Fatalf("%dx%d: product=%v, want %v", tc.in, tc.out, fc.Product(), wantProduct)
		}
		if !fc.Product() {
			k = newFCLevelKit(t, tc.params, 7, fc.RotationSteps())
		}
		if tc.rounded {
			k.uploadBits = tc.params.UploadBits(tc.kernelNorm(lim))
		}
		packed, err := fc.PackInput(x, slots)
		if err != nil {
			t.Fatal(err)
		}
		out, ops, err := fc.Apply(k.ev, k.ecd, k.encrypt(t, packed, fc.Product()), slots)
		if err != nil {
			t.Fatal(err)
		}
		if fc.Product() && ops != (OpCounts{PlainMults: 1}) {
			t.Errorf("op counts %+v, want one plaintext product", ops)
		}
		if got, want := fc.ExtractOutput(k.decrypt(out, fc.Product()), k.ctx.T.Value), PlainFC(w, x); !slices.Equal(got, want) {
			t.Fatalf("got %v, PlainFC %v", got, want)
		}
		return k, []*bfv.Ciphertext{out}
	}
	s := tc.conv
	w := make([][][]int64, s.OutC)
	for o := range w {
		w[o] = make([][]int64, s.InC)
		for c := range w[o] {
			w[o][c] = make([]int64, s.KH*s.KW)
			for i := range w[o][c] {
				w[o][c][i] = draw()
			}
		}
	}
	img := make([][]int64, s.InC)
	for c := range img {
		img[c] = make([]int64, s.InH*s.InW)
		for i := range img[c] {
			img[c][i] = input()
		}
	}
	conv, err := NewConv2D(s, w, slots/2)
	if err != nil {
		t.Fatal(err)
	}
	if tc.rounded {
		k.uploadBits = tc.params.UploadBits(tc.kernelNorm(lim))
	}
	packed, err := conv.PackInput(img, slots)
	if err != nil {
		t.Fatal(err)
	}
	outs, ops, err := conv.Apply(k.ev, k.ecd, k.encrypt(t, packed, true), slots)
	if err != nil {
		t.Fatal(err)
	}
	if ops != (OpCounts{PlainMults: conv.Groups()}) || len(outs) != conv.Groups() {
		t.Errorf("op counts %+v over %d outputs, want one plaintext product per tile (%d)", ops, len(outs), conv.Groups())
	}
	want := PlainConv2D(s, w, img)
	for o := range want {
		got := conv.ExtractOutput(k.decrypt(outs[o/conv.GroupSize()], true), o)
		if !slices.Equal(got, want[o]) {
			t.Fatalf("channel %d: got %v, PlainConv2D %v", o, got, want[o])
		}
	}
	return k, outs
}

// TestProductPackingMatchesPlain runs the served layers that take the
// product packing, keyless, against PlainConv2D and PlainFC: LeNet-Sm's
// conv1 (whose four outputs fill bfv-B's 4 096 coefficients exactly), its
// conv2 (two tiles of three outputs, 3 888 coefficients each) and FC,
// DemoNet's conv2 (three tiles) and FC (392 → 10, whose wrap reaches
// coefficient 214, clear of row 0's read at 391), the serve tests'
// network layers, and conv2's one-output shape at N = 2 048, which the
// slot geometry refused ("layout needs 2048 slots") before the product
// packing stopped building a slot layout. Weights and activations are
// 4-bit, as the networks synthesize them, and every upload is rounded as
// the wire rounds it.
func TestProductPackingMatchesPlain(t *testing.T) {
	for _, tc := range []productCase{
		{"LeNetSm/conv1", bfv.PresetB(), ConvSpec{InH: 28, InW: 28, InC: 1, KH: 5, KW: 5, OutC: 4}, 0, 0, true},
		{"LeNetSm/conv2", bfv.PresetB(), ConvSpec{InH: 14, InW: 14, InC: 4, KH: 5, KW: 5, OutC: 6}, 0, 0, true},
		{"LeNetSm/fc", bfv.PresetB(), ConvSpec{}, 294, 10, true},
		{"DemoNet/conv1", bfv.PresetB(), ConvSpec{InH: 28, InW: 28, InC: 1, KH: 5, KW: 5, OutC: 4}, 0, 0, true},
		{"DemoNet/conv2", bfv.PresetB(), ConvSpec{InH: 14, InW: 14, InC: 4, KH: 5, KW: 5, OutC: 8}, 0, 0, true},
		{"DemoNet/fc", bfv.PresetB(), ConvSpec{}, 392, 10, true},
		{"ServeTestNet/conv1", bfv.PresetTest(), ConvSpec{InH: 12, InW: 12, InC: 1, KH: 3, KW: 3, OutC: 4}, 0, 0, true},
		{"ServeTestNet/conv2", bfv.PresetTest(), ConvSpec{InH: 6, InW: 6, InC: 4, KH: 5, KW: 5, OutC: 6}, 0, 0, true},
		{"ServeTestNet/fc", bfv.PresetTest(), ConvSpec{}, 54, 10, true},
		{"FabricTestNet/fc", bfv.PresetTest(), ConvSpec{}, 16, 8, true},
		{"Test/14x14x4to1", bfv.PresetTest(), ConvSpec{InH: 14, InW: 14, InC: 4, KH: 5, KW: 5, OutC: 1}, 0, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, sampling.NewSource([32]byte{37}, "product/"+tc.name), 7, true, true)
		})
	}
}

// TestConvTilesMatchMulPlainQ: a tiled convolution's Apply, one forward
// transform of the upload and one dyadic product and inverse transform
// per tile, is byte for byte MulPlainQ by each tile's kernel alone, at
// LeNet-Sm's conv2 (two tiles of three outputs) and DemoNet's (three
// tiles, the last of two outputs); each tile reads 196 coefficients per
// output, ascending, inside the 3 888 its outputs span.
func TestConvTilesMatchMulPlainQ(t *testing.T) {
	for _, tc := range []struct {
		spec  ConvSpec
		tiles int
	}{
		{ConvSpec{InH: 14, InW: 14, InC: 4, KH: 5, KW: 5, OutC: 6}, 2},
		{ConvSpec{InH: 14, InW: 14, InC: 4, KH: 5, KW: 5, OutC: 8}, 3},
	} {
		src := sampling.NewSource([32]byte{41}, fmt.Sprintf("tiles/%d", tc.spec.OutC))
		k := keylessKit(t, bfv.PresetB(), 3)
		slots := k.ctx.Params.Slots()
		conv, err := NewConv2D(tc.spec, synthConvWeights(src, tc.spec.OutC, tc.spec.InC, 25, 7), slots/2)
		if err != nil {
			t.Fatal(err)
		}
		if conv.Groups() != tc.tiles || conv.GroupSize() != 3 {
			t.Fatalf("%+v: %d tiles of %d outputs, want %d of 3", tc.spec, conv.Groups(), conv.GroupSize(), tc.tiles)
		}
		packed, err := conv.PackInput(synthImage(src, tc.spec.InC, tc.spec.InH*tc.spec.InW, 7), slots)
		if err != nil {
			t.Fatal(err)
		}
		ct := k.encrypt(t, packed, true)
		outs, _, err := conv.Apply(k.ev, k.ecd, ct, slots)
		if err != nil {
			t.Fatal(err)
		}
		for g, kc := range conv.productKernels() {
			want := k.ev.MulPlainQ(ct, k.ctx.PrepareMulQ(kc))
			if got, w := hashV1Frame(outs[g]), hashV1Frame(want); got != w {
				t.Errorf("OutC %d tile %d: Apply hashes to %s, MulPlainQ by its kernel to %s", tc.spec.OutC, g, got, w)
			}
			idx := conv.ReadIndices(g)
			outputs := min(3, tc.spec.OutC-3*g)
			if len(idx) != outputs*196 || !slices.IsSorted(idx) || idx[len(idx)-1] >= 3888 {
				t.Errorf("OutC %d tile %d reads %d coefficients up to %d, want %d ascending below 3 888", tc.spec.OutC, g, len(idx), idx[len(idx)-1], outputs*196)
			}
		}
	}
}

// TestProductPackingFitBoundary draws convolution shapes at the Test
// preset (N = 2 048) whose one tile fills the polynomial as far as the
// shape allows — the most output channels of C·Hp·Wp coefficients each
// that fit, ⌊N / (C·Hp·Wp)⌋ — so the negacyclic wrap is as deep as the
// packing lets it get, and FC shapes whose last read coefficient is as
// close to N as the shape allows. Weights and inputs are as wide as keeps
// every output inside ±t/2 (±15 for a conv of at most 75 taps, ±7 for an
// FC of at most 601 columns); every output must equal the plaintext
// reference. One more convolution output takes a second tile, full tiles
// first, and must compute the layer too (the "+tile" subtests, drawn from
// a source of their own); one more FC output must not fit. Then the
// shapes one coefficient past one polynomial: conv-one-past (3 · 683 =
// N + 1) takes two tiles, a convolution whose one output channel takes
// N + 1 coefficients is refused with C·Hp·Wp and N named, and an FC layer
// 3 · 683 must take the slot packing and still compute the layer.
func TestProductPackingFitBoundary(t *testing.T) {
	const n = 2048
	src := sampling.NewSource([32]byte{38}, "product-boundary")
	for i := 0; i < 6; i++ {
		k := 2*src.Intn(3) + 1
		h, w, c := 1+src.Intn(12), 1+src.Intn(12), 1+src.Intn(3)
		spec := ConvSpec{InH: h, InW: w, InC: c, KH: k, KW: 2*src.Intn(2) + 1}
		per := c * (h + k - 1) * (w + spec.KW - 1)
		if spec.OutC = n / per; spec.OutC == 0 {
			continue
		}
		tc := productCase{name: fmt.Sprintf("conv%+v", spec), params: bfv.PresetTest(), conv: spec}
		t.Run(tc.name, func(t *testing.T) { tc.run(t, src, 15, false, true) })
		past := tc
		past.conv.OutC++
		past.name += "+tile"
		t.Run(past.name, func(t *testing.T) {
			k, outs := past.run(t, sampling.NewSource([32]byte{38}, "product-boundary/"+past.name), 15, false, true)
			if len(outs) != 2 {
				t.Errorf("%d outputs in %d tiles under ring degree %d", past.conv.OutC, len(outs), k.ctx.Params.N())
			}
		})
	}
	for i := 0; i < 6; i++ {
		in := 2 + src.Intn(600)
		out := n / in
		if out == in {
			out--
		}
		tc := productCase{name: fmt.Sprintf("fc%dx%d", in, out), params: bfv.PresetTest(), in: in, out: out}
		t.Run(tc.name, func(t *testing.T) { tc.run(t, src, 7, false, true) })
		if probe, err := NewFCSpecOnly(in, out+1, n/2); err == nil && probe.Product() {
			t.Errorf("%dx%d: %d coefficients past N take the product packing", in, out+1, (out+1)*in-n)
		}
	}
	if _, err := NewConv2DSpecOnly(ConvSpec{InH: 1, InW: n + 1, InC: 1, KH: 1, KW: 1, OutC: 3}, n/2); err == nil || !strings.Contains(err.Error(), "C·Hp·Wp = 1·1·2049 = 2049 coefficients, more than N = 2048") {
		t.Errorf("a channel of N + 1 coefficients: %v, want the C·Hp·Wp > N refusal", err)
	}
	for _, tc := range []struct {
		productCase
		product bool
	}{
		{productCase{"conv-one-past", bfv.PresetTest(), ConvSpec{InH: 1, InW: 683, InC: 1, KH: 1, KW: 1, OutC: 3}, 0, 0, false}, true},
		{productCase{"fc-one-past", bfv.PresetTest(), ConvSpec{}, 683, 3, false}, false},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, src, 6, false, tc.product) })
	}
}

// TestProductNoise pins the noise budget of every tile of the
// product-packed layers LeNet-Sm and DemoNet serve at bfv-B, on the wire
// they are served over: the upload rounded to the layer's width
// (bfv.Parameters.UploadBits), the reply switched down and its c0
// rounded to ReplyBits (bfv.NoiseBudgetBits, 4-bit weights and
// activations, seeded symmetric inputs). The upload's rounding spends the
// budget before the switch that the switch discards by design: the
// product multiplies the rounding error by the kernel, so a tile reaches
// the switch with at least what the width rule predicts, d − TBits − 1 −
// log2(√3·‖k‖₂) at the rule's kernel bound (measured 13.1–14.1 over
// predictions of 11.3–12.1; 41.5–44.0 while uploads were full-width).
// The switch to one residue then leaves its own ceiling (measured
// 11.5–11.8), and every reply must leave it, and the reply's rounding,
// at least 3 bits above the client's 8-bit floor (measured 11.4–11.5). Negative inputs would cost
// about 13 bits before the switch (a residue near t scales the kernel by
// t); a network's inputs are its image and ReLU outputs.
func TestProductNoise(t *testing.T) {
	const floor, margin, lim = 8.0, 3.0, 7
	for _, tc := range []productCase{
		{"LeNetSm/conv1", bfv.PresetB(), ConvSpec{InH: 28, InW: 28, InC: 1, KH: 5, KW: 5, OutC: 4}, 0, 0, true},
		{"LeNetSm/conv2", bfv.PresetB(), ConvSpec{InH: 14, InW: 14, InC: 4, KH: 5, KW: 5, OutC: 6}, 0, 0, true},
		{"LeNetSm/fc", bfv.PresetB(), ConvSpec{}, 294, 10, true},
		{"DemoNet/conv2", bfv.PresetB(), ConvSpec{InH: 14, InW: 14, InC: 4, KH: 5, KW: 5, OutC: 8}, 0, 0, true},
		{"DemoNet/fc", bfv.PresetB(), ConvSpec{}, 392, 10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, outs := tc.run(t, sampling.NewSource([32]byte{39}, "product-noise/"+tc.name), lim, true, true)
			d := k.uploadBits
			predicted := float64(d-tc.params.TBits-1) - math.Log2(math.Sqrt(3)*tc.kernelNorm(lim))
			for g, ct := range outs {
				before := bfv.NoiseBudgetBits(k.ctx, k.sk, ct)
				for d := 0; d < k.ctx.Params.ReplyDrop(); d++ {
					var err error
					if ct, err = k.ev.ModSwitchDown(ct); err != nil {
						t.Fatal(err)
					}
				}
				after := bfv.NoiseBudgetBits(k.ctx, k.sk, ct)
				roundTrip(t, k.ctx, ct.Value[0], k.ctx.Params.ReplyBits())
				rounded := bfv.NoiseBudgetBits(k.ctx, k.sk, ct)
				t.Logf("%s tile %d: %.2f bits before the reply switch (a %d-bit upload; the rule predicts %.2f), %.2f after, %.2f rounded to %d bits",
					tc.name, g, before, d, predicted, after, rounded, k.ctx.Params.ReplyBits())
				if before < predicted || after < floor+margin || rounded < floor+margin {
					t.Errorf("tile %d: %.2f bits before the switch, %.2f after, %.2f rounded; want at least %.2f, and %.0f over the %.0f-bit floor", g, before, after, rounded, predicted, margin, floor)
				}
			}
		})
	}
}

// TestProductKernelSharedAcrossSessions: sessions under one context,
// applying one operator at once, all read the one kernel it lifts (the
// race detector watches the build) and all decrypt to the layer.
func TestProductKernelSharedAcrossSessions(t *testing.T) {
	spec := ConvSpec{InH: 12, InW: 12, InC: 1, KH: 3, KW: 3, OutC: 2}
	src := sampling.NewSource([32]byte{40}, "product-shared")
	weights := synthConvWeights(src, spec.OutC, spec.InC, 9, 7)
	image := synthImage(src, spec.InC, spec.InH*spec.InW, 7)
	base := keylessKit(t, bfv.PresetTest(), 2)
	slots := base.ctx.Params.Slots()
	conv, err := NewConv2D(spec, weights, slots/2)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := conv.PackInput(image, slots)
	if err != nil {
		t.Fatal(err)
	}
	ct := base.encrypt(t, packed, true)
	want := PlainConv2D(spec, weights, image)
	const sessions = 4
	outs := make([]*bfv.Ciphertext, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ev := bfv.NewEvaluator(base.ctx, nil, nil) // another session's evaluator
			res, _, err := conv.Apply(ev, base.ecd, ct, slots)
			if err == nil {
				outs[i] = res[0]
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, out := range outs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for o := range want {
			if got := conv.ExtractOutput(base.decrypt(out, true), o); !slices.Equal(got, want[o]) {
				t.Fatalf("session %d channel %d: got %v, want %v", i, o, got, want[o])
			}
		}
	}
	if n := len(conv.kernel.lifted); n != 1 {
		t.Errorf("%d kernels lifted for one context, want 1", n)
	}
}
