package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"choco/internal/bfv"
	"choco/internal/par"
	"choco/internal/ring"
	"choco/internal/sampling"
)

// hashV1Frame hashes ct the way wire version 1 framed it — tag 1, the
// component count, N, k and a zero scale field, then every residue as an
// 8-byte little-endian word — the form the golden digests below were taken
// in. The wire has since packed residues to their bit widths; the
// polynomials these digests pin have not changed.
func hashV1Frame(ct *bfv.Ciphertext) string {
	b := binary.LittleEndian.AppendUint32(nil, 1)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ct.Value)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ct.Value[0].Coeffs[0])))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ct.Value[0].Coeffs)))
	b = binary.LittleEndian.AppendUint64(b, 0)
	for _, p := range ct.Value {
		for _, row := range p.Coeffs {
			for _, v := range row {
				b = binary.LittleEndian.AppendUint64(b, v)
			}
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// newFCLevelKit builds an independent session over an explicit preset
// (the cross-level tests sweep presets; the shared newKit is pinned to
// PresetTest).
func newFCLevelKit(t testing.TB, params bfv.Parameters, seed byte, rotSteps []int) *kit {
	t.Helper()
	ctx, err := bfv.NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	kg := bfv.NewKeyGenerator(ctx, [32]byte{80 + seed})
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	galois := kg.GenRotationKeys(sk, rotSteps...)
	return &kit{
		ctx: ctx,
		sk:  sk,
		enc: bfv.NewEncryptor(ctx, pk, [32]byte{90 + seed}),
		dec: bfv.NewDecryptor(ctx, sk),
		ecd: bfv.NewEncoder(ctx),
		ev:  bfv.NewEvaluator(ctx, nil, galois),
	}
}

func synthFC(t testing.TB, src *sampling.Source, in, out, rowSize int) *FC {
	t.Helper()
	w := make([][]int64, out)
	for r := range w {
		w[r] = make([]int64, in)
		for c := range w[r] {
			w[r][c] = int64(src.Intn(11)) - 5
		}
	}
	fc, err := NewFC(in, out, w, rowSize)
	if err != nil {
		t.Fatal(err)
	}
	return fc
}

// applyHoisted is the Halevi–Shoup oracle (level 1 of DESIGN.md §13's
// ladder, the schedule Apply is measured against): the baby rotations of
// the ciphertext share one hoisted decomposition, every rotated giant
// pays a full key switch of its partial sum, and the plaintext multiplies
// run through the materialized MulPlain + Add chain with every weight
// plaintext rebuilt. It shares only the geometry (bsgs) with applyBSGS.
func (f *FC) applyHoisted(ev *bfv.Evaluator, ecd *bfv.Encoder, ct *bfv.Ciphertext, slots int) (*bfv.Ciphertext, OpCounts, error) {
	var ops OpCounts
	pl := f.bsgs(slots)

	// Baby rotations all act on the same input ciphertext, so they
	// share one hoisted decomposition (the batch fans out internally).
	babies := []*bfv.Ciphertext{ct}
	if len(pl.babies) > 1 {
		rots, err := ev.RotateRowsHoisted(ct, pl.babies[1:])
		if err != nil {
			return nil, ops, err
		}
		babies = append(babies, rots...)
		ops.Rotations += len(rots)
	}

	// Each giant step accumulates its own inner sum in baby order and
	// rotates it with its own full key switch; the final fold runs in
	// giant order.
	var total *bfv.Ciphertext
	for gi, giant := range pl.giants {
		var inner *bfv.Ciphertext
		for bi, baby := range babies {
			diag := pl.diag(0, gi, bi)
			if diag == nil {
				continue
			}
			pt, err := ecd.EncodeInts(diag)
			if err != nil {
				return nil, ops, err
			}
			term := ev.MulPlain(baby, ev.PrepareMul(pt))
			ops.PlainMults++
			if inner == nil {
				inner = term
			} else {
				inner = ev.Add(inner, term)
				ops.Adds++
			}
		}
		if inner == nil {
			continue
		}
		if gi > 0 {
			r, err := ev.RotateRows(inner, giant)
			if err != nil {
				return nil, ops, err
			}
			ops.Rotations++
			inner = r
		}
		if total == nil {
			total = inner
		} else {
			total = ev.Add(total, inner)
			ops.Adds++
		}
	}
	if total == nil {
		return nil, ops, fmt.Errorf("core: output 0 has no contributing weights")
	}
	return total, ops, nil
}

// TestFCApplyLevelsByteIdentical is the property test of FC's one
// schedule: on every BFV preset Apply (QP-resident babies, one rounding
// per inner sum, giants folded in QP) is byte-identical to applyUnfused,
// the same schedule with nothing hoisted or fused, and to the bytes it
// returned before the hoisting ladder left core (the apply digests);
// against the Halevi–Shoup oracle it has identical logical op counts,
// decrypts to the same plaintext and keeps the oracle's noise budget to
// within 0.05 bit (it rounds less, so it usually keeps more) — and the
// result, folded by ExtractOutput, is the plaintext matrix-vector
// product. A one-output layer's inner sum holds lifted terms alone,
// which divide by P exactly, so there Apply is the oracle's bytes too.
// The shapes cover a near-square layer with dead diagonals (Out < In),
// LeNet-Sm's 294×10 and a full-row 2048×10 (many partial sums per
// output), a single output (no rotation at all), Out > In, and square
// layers, whose oracle bytes are pinned to what the square-diagonal
// schedule produced before the extended diagonals (golden hashes taken
// at 47b6bf0).
func TestFCApplyLevelsByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		params  bfv.Parameters
		in, out int
		golden  string // hashV1Frame of the oracle's output
		apply   string // hashV1Frame of Apply's output
	}{
		{"PresetTest/20x13", bfv.PresetTest(), 20, 13, "",
			"a754a32c0b5223559954b64dd632d0530b8efb751282acd68dabfb1d0395a7d6"},
		{"PresetA/20x13", bfv.PresetA(), 20, 13, "",
			"0ae4b9ca57826037968a54153856ee835348f039b862e72433b17fcbfe60e640"},
		{"PresetB/20x13", bfv.PresetB(), 20, 13, "",
			"916661e73ec8a9e1da36c123f9830d26c66850bfe89a26676201cd3d32a265b0"},
		{"PresetB/294x10", bfv.PresetB(), 294, 10, "",
			"7da17854f1545c5df163fc6e6160b99fa0c276df14210e81ca0522a3105b5245"},
		{"PresetB/2048x10", bfv.PresetB(), 2048, 10, "",
			"a8beb6a6d199ae7130a7e55e0e1cd0f8db827864479a6add5df13b21c424840c"},
		{"PresetTest/64x4", bfv.PresetTest(), 64, 4, "",
			"1396897013895ab46c6ec655837e994a317321091054c66214d4cd88213fa599"},
		{"PresetTest/24x1", bfv.PresetTest(), 24, 1, "",
			"f64b800c6001fafde034c2f070e2add134378fa49f3d038eac7149a27d8a9251"},
		{"PresetTest/5x12", bfv.PresetTest(), 5, 12, "",
			"b04bfe9e92332c7e2aa3e32f86f004aa4e0ce03f0357fe5acfd7c98d0e506883"},
		{"PresetTest/64x64", bfv.PresetTest(), 64, 64, "5ef608b5be686143e448ffb10e23ded4a0fabbe777bcfa0ac6f23fb6b7d945e0",
			"702d955755a4113e14e28827dd09bcc925bdb274e0d36764634c869aa5772001"},
		{"PresetB/64x64", bfv.PresetB(), 64, 64, "dc51d564ded76046ec57cd6d60e78d6d418c94d2e9932ccb6cb92fe52a5699e7",
			"d6ad33225889a0d11f01b45c76f2435d1cf053674dcae76f88eedb155a580bbb"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := sampling.NewSource([32]byte{23}, "fc-levels/"+tc.name)
			ctxProbe, err := bfv.NewContext(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			rowSize := ctxProbe.Params.N() / 2
			slots := ctxProbe.Params.Slots()
			fc := synthFC(t, src, tc.in, tc.out, rowSize)
			k := newFCLevelKit(t, tc.params, 1, fc.RotationSteps())

			x := make([]int64, fc.In)
			for i := range x {
				x[i] = int64(src.Intn(15)) - 7
			}
			packed, err := fc.PackInput(x, slots)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := k.enc.EncryptInts(packed)
			if err != nil {
				t.Fatal(err)
			}

			ref, refOps, err := fc.applyHoisted(k.ev, k.ecd, ct, slots)
			if err != nil {
				t.Fatal(err)
			}
			got, ops, err := fc.Apply(k.ev, k.ecd, ct, slots)
			if err != nil {
				t.Fatal(err)
			}
			if ops != refOps {
				t.Errorf("op counts %+v, oracle %+v", ops, refOps)
			}
			unfused, unfusedOps, err := applyUnfused(k, fc.bsgs(slots), ct)
			if err != nil {
				t.Fatal(err)
			}
			if !ctEqual(k.ctx.RingQ, unfused[0], got) || unfusedOps != ops {
				t.Errorf("Apply differs from the unfused schedule (op counts %+v, unfused %+v)", ops, unfusedOps)
			}
			if sum := hashV1Frame(got); sum != tc.apply {
				t.Errorf("Apply output hashes to %s, pinned %s", sum, tc.apply)
			}
			if fc.Po == 1 && !ctEqual(k.ctx.RingQ, ref, got) {
				t.Error("one-output layer: Apply differs from the oracle's bytes")
			}
			if !k.ctx.RingT.Equal(k.dec.Decrypt(ref).Poly, k.dec.Decrypt(got).Poly) {
				t.Error("Apply decrypts differently from the oracle")
			}
			was, now := bfv.NoiseBudgetBits(k.ctx, k.sk, ref), bfv.NoiseBudgetBits(k.ctx, k.sk, got)
			t.Logf("noise budget: oracle %.2f bits, Apply %.2f", was, now)
			if now < was-0.05 {
				t.Errorf("Apply leaves %.2f bits of noise budget, the oracle %.2f", now, was)
			}
			if tc.golden != "" {
				if sum := hashV1Frame(ref); sum != tc.golden {
					t.Errorf("square layer oracle output hashes to %s, the square-diagonal schedule produced %s", sum, tc.golden)
				}
			}

			want := PlainFC(fc.Weights, x)
			decoded := fc.ExtractOutput(k.ecd.DecodeInts(k.dec.Decrypt(got)), k.ctx.T.Value)
			for i := range want {
				if decoded[i] != want[i] {
					t.Fatalf("output %d: decoded %d, plain reference %d", i, decoded[i], want[i])
				}
			}
		})
	}
}

// TestFCApplyLevelsParallelDeterminism forces Apply through the serial
// (1 worker) and wide (8 workers, ring fan-out thresholds at 1)
// schedules and requires bit-identical outputs: the lazy accumulators
// merge per-worker partials with plain modular sums, so the partition
// must not leak into the bytes.
func TestFCApplyLevelsParallelDeterminism(t *testing.T) {
	src := sampling.NewSource([32]byte{24}, "fc-levels-par")
	ctxProbe, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	slots := ctxProbe.Params.Slots()
	fc := synthFC(t, src, 24, 24, ctxProbe.Params.N()/2)
	k := newFCLevelKit(t, bfv.PresetTest(), 2, fc.RotationSteps())
	x := make([]int64, fc.In)
	for i := range x {
		x[i] = int64(src.Intn(9)) - 4
	}
	packed, err := fc.PackInput(x, slots)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := k.enc.EncryptInts(packed)
	if err != nil {
		t.Fatal(err)
	}

	oldP := par.Parallelism()
	t.Cleanup(func() { par.SetParallelism(oldP) })
	t.Cleanup(func() { ring.SetParallelThresholds(8<<10, 16<<10, 32<<10) })

	par.SetParallelism(1)
	serial, serialOps, err := fc.Apply(k.ev, k.ecd, ct, slots)
	if err != nil {
		t.Fatal(err)
	}
	par.SetParallelism(8)
	ring.SetParallelThresholds(1, 1, 1)
	wide, wideOps, err := fc.Apply(k.ev, k.ecd, ct, slots)
	if err != nil {
		t.Fatal(err)
	}
	if !ctEqual(k.ctx.RingQ, serial, wide) {
		t.Error("8-worker output is not byte-identical to serial")
	}
	if serialOps != wideOps {
		t.Errorf("op counts diverged: serial %+v wide %+v", serialOps, wideOps)
	}
}

// TestFCApplyBatchLevelsByteIdentical pins the batch engine to the
// unfused schedule: ApplyBatch over three sessions under distinct keys
// reproduces, per session, applyUnfused's bytes and op counts, cold and
// then warm on one shared plaintext cache.
func TestFCApplyBatchLevelsByteIdentical(t *testing.T) {
	src := sampling.NewSource([32]byte{25}, "fc-levels-batch")
	ctxProbe, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	slots := ctxProbe.Params.Slots()
	fc := synthFC(t, src, 16, 12, ctxProbe.Params.N()/2)

	const sessions = 3
	var ecd *bfv.Encoder
	items := make([]BatchInput, sessions)
	want := make([]*bfv.Ciphertext, sessions)
	wantOps := make([]OpCounts, sessions)
	for i := 0; i < sessions; i++ {
		k := newFCLevelKit(t, bfv.PresetTest(), byte(10+i), fc.RotationSteps())
		x := make([]int64, fc.In)
		for j := range x {
			x[j] = int64(src.Intn(15)) - 7
		}
		packed, err := fc.PackInput(x, slots)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := k.enc.EncryptInts(packed)
		if err != nil {
			t.Fatal(err)
		}
		items[i], ecd = BatchInput{Ev: k.ev, Ct: ct}, k.ecd
		unfused, ops, err := applyUnfused(k, fc.bsgs(slots), ct)
		if err != nil {
			t.Fatal(err)
		}
		want[i], wantOps[i] = unfused[0], ops
	}

	cache := NewPlainCache(0)
	for _, label := range []string{"cold", "warm"} {
		outs, ops, err := fc.ApplyBatch(ecd, items, slots, cache)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i := 0; i < sessions; i++ {
			if !ctEqual(ctxProbe.RingQ, outs[i], want[i]) {
				t.Errorf("%s: session %d batch output differs from the unfused schedule", label, i)
			}
			if ops[i] != wantOps[i] {
				t.Errorf("%s: session %d op counts %+v, unfused %+v", label, i, ops[i], wantOps[i])
			}
		}
	}
	if cache.Stats().Hits == 0 {
		t.Error("the warm batch did not reuse the plaintext cache")
	}
}

// TestFCApplyMissingRotationKey pins the error path: a session whose
// evaluator lacks a baby-step key, or a giant-step key, must fail with
// the missing-Galois-key error, serial and batched.
func TestFCApplyMissingRotationKey(t *testing.T) {
	src := sampling.NewSource([32]byte{26}, "fc-levels-missing")
	ctxProbe, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	slots := ctxProbe.Params.Slots()
	fc := synthFC(t, src, 16, 16, ctxProbe.Params.N()/2)
	var babySteps, giantSteps []int
	for j := 1; j < fc.B; j++ {
		babySteps = append(babySteps, j)
	}
	for i := 1; i < fc.G; i++ {
		giantSteps = append(giantSteps, i*fc.B)
	}
	x := make([]int64, fc.In)
	for i := range x {
		x[i] = 1
	}
	packed, err := fc.PackInput(x, slots)
	if err != nil {
		t.Fatal(err)
	}
	for seed, tc := range []struct {
		name string
		keys []int
	}{
		{"giant key missing", babySteps},
		{"baby key missing", giantSteps},
	} {
		k := newFCLevelKit(t, bfv.PresetTest(), byte(3+seed), tc.keys)
		ct, err := k.enc.EncryptInts(packed)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := fc.Apply(k.ev, k.ecd, ct, slots); err == nil || !strings.Contains(err.Error(), "missing Galois key") {
			t.Errorf("%s: Apply returned %v, want the missing-key error", tc.name, err)
		}
		items := []BatchInput{{Ev: k.ev, Ct: ct}, {Ev: k.ev, Ct: ct}}
		if _, _, err := fc.ApplyBatch(k.ecd, items, slots, nil); err == nil || !strings.Contains(err.Error(), "missing Galois key") {
			t.Errorf("%s: ApplyBatch returned %v, want the missing-key error", tc.name, err)
		}
	}
}

// TestFCRotationPlan pins the physical work the cost sheet prices: Apply
// (level 3) turns the oracle's (level 1) full key switches into lazy
// products and its mod-downs into one.
func TestFCRotationPlan(t *testing.T) {
	fc, err := NewFCSpecOnly(64, 64, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if fc.B != 8 || fc.G != 8 {
		t.Fatalf("unexpected geometry B=%d G=%d", fc.B, fc.G)
	}
	if lvl := fc.HoistLevel(); lvl != 3 {
		t.Fatalf("HoistLevel = %d, want 3", lvl)
	}

	p1 := fc.Plan(1)
	if p1.FullKeySwitches != 14 || p1.LazyProducts != 0 || p1.ModDowns != 14 || p1.NTTModDowns != 0 || p1.Decompositions != 8 {
		t.Errorf("level-1 plan %+v", p1)
	}
	p3 := fc.Plan(3)
	if p3.FullKeySwitches != 0 || p3.LazyProducts != 14 || p3.ModDowns != 1 || p3.NTTModDowns != 8 || p3.Decompositions != 8 {
		t.Errorf("level-3 plan %+v", p3)
	}
	for _, p := range []RotationPlan{p1, p3} {
		if p.BabySteps != 7 || p.GiantSteps != 7 || p.PlainMults != 64 {
			t.Errorf("plan step counts %+v", p)
		}
	}
	// One output: nothing rotates; Apply still decomposes its input and
	// closes one inner sum, the oracle does neither.
	one, err := NewFCSpecOnly(1, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if p := one.Plan(one.HoistLevel()); p != (RotationPlan{Level: 3, PlainMults: 1, Decompositions: 1, NTTModDowns: 1}) {
		t.Errorf("1x1 plan %+v", p)
	}
	if p := one.Plan(1); p != (RotationPlan{Level: 1, PlainMults: 1}) {
		t.Errorf("1x1 oracle plan %+v", p)
	}
	// LeNet-Sm's layer: 16 extended diagonals of period 512, not 303 square ones.
	lenet, err := NewFCSpecOnly(294, 10, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if p := lenet.Plan(3); lenet.P != 512 || lenet.Po != 16 || p.BabySteps != 3 || p.GiantSteps != 3 || p.PlainMults != 16 || p.ModDowns != 1 || p.NTTModDowns != 4 || p.Decompositions != 4 {
		t.Errorf("294x10: P=%d Po=%d plan %+v", lenet.P, lenet.Po, p)
	}
	// LeNet-Sm's convolutions: one mod-down per inner sum — conv1's two
	// groups are their own inner sums, conv2's one group folds four.
	for _, tc := range []struct {
		spec                ConvSpec
		modDowns, innerSums int
	}{
		{ConvSpec{InH: 28, InW: 28, InC: 1, KH: 5, KW: 5, OutC: 4}, 0, 2},
		{ConvSpec{InH: 14, InW: 14, InC: 4, KH: 5, KW: 5, OutC: 6}, 1, 4},
	} {
		conv, err := NewConv2DSpecOnly(tc.spec, 2048)
		if err != nil {
			t.Fatal(err)
		}
		if p := conv.Plan(); p.ModDowns != tc.modDowns || p.NTTModDowns != tc.innerSums || p.FullKeySwitches != 0 {
			t.Errorf("conv %+v: plan %+v", tc.spec, p)
		}
	}
	if BSGSRotations(64) != 14 || DiagonalRotations(64) != 63 {
		t.Error("rotation-count helpers changed")
	}
}

// squareFC is the schedule FC ran before the extended diagonals, kept
// only to price the noise of the new one: the same weights walked as the
// P diagonals of the P×P padding, every output complete in its own slot.
func squareFC(f *FC) *FC {
	sq := *f
	sq.Po, sq.B = f.P, 1
	for sq.B*sq.B < sq.Po {
		sq.B <<= 1
	}
	sq.G, sq.plains = sq.Po/sq.B, NewPlainCache(0)
	return &sq
}

// TestFCNoise measures what the extended diagonals do to the noise
// budget at bfv-B, in fractions of a bit. LeNet-Sm's 294×10 layer sums 16
// terms under encryption where the square schedule summed 303, so it
// must come out at least 1 bit ahead and with at least 8 bits; a full-row
// 2048×10 layer, which the square schedule left about 2 bits, must keep
// at least 4. Both are pinned to what they kept when every baby rotation
// paid its own mod-down (8.35 and 6.35 bits): one rounding per inner sum
// may not cost 0.05 bit of it. The fold the client does on decoded slots costs nothing;
// the same fold done by the server — rotate-and-sum by Po, 2·Po, … P/2,
// five more key switches at 294×10 — piles the partials' noise into
// every slot and must come out below both.
func TestFCNoise(t *testing.T) {
	for _, tc := range []struct {
		in, out   int
		minBudget float64
		was       float64 // the budget a mod-down per baby left
		// minGain over the square schedule; 0 skips it and the server fold
		// (2048 square diagonals are not worth a test's time).
		minGain float64
	}{
		{294, 10, 8, 8.35, 1},
		{2048, 10, 4, 6.35, 0},
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.in, tc.out), func(t *testing.T) {
			src := sampling.NewSource([32]byte{27}, "fc-noise")
			ctxProbe, err := bfv.NewContext(bfv.PresetB())
			if err != nil {
				t.Fatal(err)
			}
			slots := ctxProbe.Params.Slots()
			fc := synthFC(t, src, tc.in, tc.out, slots/2)
			steps := fc.RotationSteps()
			var sq *FC
			if tc.minGain > 0 {
				sq = squareFC(fc)
				steps = append(steps, sq.RotationSteps()...)
				for s := fc.Po; s < fc.P; s <<= 1 {
					steps = append(steps, s)
				}
			}
			k := newFCLevelKit(t, bfv.PresetB(), 4, steps)
			x := make([]int64, fc.In)
			for i := range x {
				x[i] = int64(src.Intn(16))
			}
			packed, err := fc.PackInput(x, slots)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := k.enc.EncryptInts(packed)
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := fc.Apply(k.ev, k.ecd, ct, slots)
			if err != nil {
				t.Fatal(err)
			}
			now := bfv.NoiseBudgetBits(k.ctx, k.sk, out)
			t.Logf("%dx%d at bfv-B: fresh input %.2f bits, %d extended diagonals leave %.2f", tc.in, tc.out, bfv.NoiseBudgetBits(k.ctx, k.sk, ct), fc.Po, now)
			if now < tc.minBudget || now < tc.was-0.05 {
				t.Errorf("%.2f bits of noise budget left, want at least %.1f and the %.2f a mod-down per baby left", now, tc.minBudget, tc.was)
			}
			want, got := PlainFC(fc.Weights, x), fc.ExtractOutput(k.dec.DecryptInts(out), k.ctx.T.Value)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("output %d: %d, plain reference %d", i, got[i], want[i])
				}
			}
			if sq == nil {
				return
			}

			old, _, err := sq.Apply(k.ev, k.ecd, ct, slots)
			if err != nil {
				t.Fatal(err)
			}
			folded := out
			for s := fc.Po; s < fc.P; s <<= 1 {
				r, err := k.ev.RotateRows(folded, s)
				if err != nil {
					t.Fatal(err)
				}
				folded = k.ev.Add(folded, r)
			}
			was, server := bfv.NoiseBudgetBits(k.ctx, k.sk, old), bfv.NoiseBudgetBits(k.ctx, k.sk, folded)
			t.Logf("the %d square diagonals left %.2f bits; folding on the server would leave %.2f", sq.Po, was, server)
			if now < was+tc.minGain {
				t.Errorf("%.2f bits left, the square schedule %.2f: want a gain of at least %.1f", now, was, tc.minGain)
			}
			if server >= was || server >= now {
				t.Errorf("a server-side fold leaves %.2f bits, the client fold %.2f, the square schedule %.2f: the fold no longer costs noise, revisit where it runs", server, now, was)
			}
			if sqOut, srvOut := sq.ExtractOutput(k.dec.DecryptInts(old), k.ctx.T.Value), sq.ExtractOutput(k.dec.DecryptInts(folded), k.ctx.T.Value); !slices.Equal(sqOut, want) || !slices.Equal(srvOut, want) {
				t.Errorf("square schedule %v, server fold %v, plain reference %v", sqOut, srvOut, want)
			}
		})
	}
}
