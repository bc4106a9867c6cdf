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

// TestFCApplyLevelsByteIdentical is the tentpole property test: on
// every BFV preset, the level-2 engine (QP-lazy giants over lifted
// babies) produces ciphertexts byte-identical to the level-1
// Halevi–Shoup path; the level-3 engine (QP-resident babies, one
// rounding per inner sum) is byte-identical to the unfused oracle of its
// own schedule, decrypts to the plaintext level 1 decrypts to and keeps
// level 1's noise budget to within 0.05 bit (it rounds less, so it
// usually keeps more); all with identical logical op counts — and the
// result, folded by ExtractOutput, is the plaintext matrix-vector
// product. The shapes cover a near-square layer with dead diagonals
// (Out < In), LeNet-Sm's 294×10 and a full-row 2048×10 (many partial
// sums per output), a single output (no rotation at all), Out > In, and
// square layers, whose bytes are pinned to what the square-diagonal
// schedule produced before the extended diagonals (golden hashes taken
// at 47b6bf0).
func TestFCApplyLevelsByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		params  bfv.Parameters
		in, out int
		golden  string // hashV1Frame of the level-1 output
	}{
		{"PresetTest/20x13", bfv.PresetTest(), 20, 13, ""},
		{"PresetA/20x13", bfv.PresetA(), 20, 13, ""},
		{"PresetB/20x13", bfv.PresetB(), 20, 13, ""},
		{"PresetB/294x10", bfv.PresetB(), 294, 10, ""},
		{"PresetB/2048x10", bfv.PresetB(), 2048, 10, ""},
		{"PresetTest/64x4", bfv.PresetTest(), 64, 4, ""},
		{"PresetTest/24x1", bfv.PresetTest(), 24, 1, ""},
		{"PresetTest/5x12", bfv.PresetTest(), 5, 12, ""},
		{"PresetTest/64x64", bfv.PresetTest(), 64, 64, "5ef608b5be686143e448ffb10e23ded4a0fabbe777bcfa0ac6f23fb6b7d945e0"},
		{"PresetB/64x64", bfv.PresetB(), 64, 64, "dc51d564ded76046ec57cd6d60e78d6d418c94d2e9932ccb6cb92fe52a5699e7"},
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

			ref, refOps, err := fc.ApplyAtLevel(k.ev, k.ecd, ct, slots, 1)
			if err != nil {
				t.Fatal(err)
			}
			got := map[int]*bfv.Ciphertext{1: ref}
			for _, level := range []int{2, 3} {
				out, ops, err := fc.ApplyAtLevel(k.ev, k.ecd, ct, slots, level)
				if err != nil {
					t.Fatalf("level %d: %v", level, err)
				}
				if ops != refOps {
					t.Errorf("level %d op counts %+v, level 1 %+v", level, ops, refOps)
				}
				got[level] = out
			}
			if !ctEqual(k.ctx.RingQ, ref, got[2]) {
				t.Error("level 2 output differs from level 1")
			}
			unfused, unfusedOps, err := applyUnfused(k, fc.bsgs(slots), ct)
			if err != nil {
				t.Fatal(err)
			}
			if !ctEqual(k.ctx.RingQ, unfused[0], got[3]) || unfusedOps != refOps {
				t.Errorf("level 3 output differs from the unfused oracle (op counts %+v, oracle %+v)", refOps, unfusedOps)
			}
			if !k.ctx.RingT.Equal(k.dec.Decrypt(ref).Poly, k.dec.Decrypt(got[3]).Poly) {
				t.Error("level 3 decrypts differently from level 1")
			}
			was, now := bfv.NoiseBudgetBits(k.ctx, k.sk, ref), bfv.NoiseBudgetBits(k.ctx, k.sk, got[3])
			t.Logf("noise budget: level 1 %.2f bits, level 3 %.2f", was, now)
			if now < was-0.05 {
				t.Errorf("level 3 leaves %.2f bits of noise budget, level 1 %.2f", now, was)
			}
			if def, _, err := fc.Apply(k.ev, k.ecd, ct, slots); err != nil {
				t.Fatal(err)
			} else if !ctEqual(k.ctx.RingQ, got[fc.HoistLevel()], def) {
				t.Errorf("default Apply differs from level %d", fc.HoistLevel())
			}
			if tc.golden != "" {
				if sum := hashV1Frame(ref); sum != tc.golden {
					t.Errorf("square layer output hashes to %s, the square-diagonal schedule produced %s", sum, tc.golden)
				}
			}

			want := PlainFC(fc.Weights, x)
			decoded := fc.ExtractOutput(k.ecd.DecodeInts(k.dec.Decrypt(ref)), k.ctx.T.Value)
			for i := range want {
				if decoded[i] != want[i] {
					t.Fatalf("output %d: decoded %d, plain reference %d", i, decoded[i], want[i])
				}
			}
		})
	}
}

// TestFCApplyLevelsParallelDeterminism forces the serial (1 worker) and
// wide (8 workers, ring fan-out thresholds at 1) schedules through
// every hoisting level and requires bit-identical outputs: the lazy
// accumulators merge per-worker partials with plain modular sums, so
// the partition must not leak into the bytes.
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

	for _, level := range []int{1, 2, 3} {
		par.SetParallelism(1)
		ring.SetParallelThresholds(8<<10, 16<<10, 32<<10)
		serial, serialOps, err := fc.ApplyAtLevel(k.ev, k.ecd, ct, slots, level)
		if err != nil {
			t.Fatal(err)
		}
		par.SetParallelism(8)
		ring.SetParallelThresholds(1, 1, 1)
		wide, wideOps, err := fc.ApplyAtLevel(k.ev, k.ecd, ct, slots, level)
		if err != nil {
			t.Fatal(err)
		}
		if !ctEqual(k.ctx.RingQ, serial, wide) {
			t.Errorf("level %d: 8-worker output is not byte-identical to serial", level)
		}
		if serialOps != wideOps {
			t.Errorf("level %d: op counts diverged: serial %+v wide %+v", level, serialOps, wideOps)
		}
	}
}

// TestFCApplyBatchLevelsByteIdentical pins the batch engines: at every
// hoisting level, ApplyBatchAtLevel over multiple sessions reproduces
// the per-session serial ApplyAtLevel bytes and op counts, sharing one
// plaintext cache across levels (the cache keys are level-independent).
func TestFCApplyBatchLevelsByteIdentical(t *testing.T) {
	src := sampling.NewSource([32]byte{25}, "fc-levels-batch")
	ctxProbe, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	slots := ctxProbe.Params.Slots()
	fc := synthFC(t, src, 16, 12, ctxProbe.Params.N()/2)

	const sessions = 3
	kits := make([]*kit, sessions)
	items := make([]BatchInput, sessions)
	for i := 0; i < sessions; i++ {
		kits[i] = newFCLevelKit(t, bfv.PresetTest(), byte(10+i), fc.RotationSteps())
		x := make([]int64, fc.In)
		for j := range x {
			x[j] = int64(src.Intn(15)) - 7
		}
		packed, err := fc.PackInput(x, slots)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := kits[i].enc.EncryptInts(packed)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = BatchInput{Ev: kits[i].ev, Ct: ct}
	}

	cache := NewPlainCache(0)
	for _, level := range []int{1, 2, 3} {
		serialOuts := make([]*bfv.Ciphertext, sessions)
		serialOps := make([]OpCounts, sessions)
		for i := 0; i < sessions; i++ {
			serialOuts[i], serialOps[i], err = fc.ApplyAtLevel(kits[i].ev, kits[i].ecd, items[i].Ct, slots, level)
			if err != nil {
				t.Fatal(err)
			}
		}
		outs, ops, err := fc.ApplyBatchAtLevel(kits[0].ecd, items, slots, cache, level)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		for i := 0; i < sessions; i++ {
			if !ctEqual(kits[i].ctx.RingQ, outs[i], serialOuts[i]) {
				t.Errorf("level %d: session %d batch output differs from serial", level, i)
			}
			if ops[i] != serialOps[i] {
				t.Errorf("level %d: session %d op counts %+v, serial %+v", level, i, ops[i], serialOps[i])
			}
		}
	}
	if cache.Stats().Hits == 0 {
		t.Error("levels did not share the plaintext cache")
	}
}

// TestFCApplyMissingRotationKey pins the error path at every level: a
// session whose evaluator lacks a giant-step key must fail with the
// missing-Galois-key error, serial and batched.
func TestFCApplyMissingRotationKey(t *testing.T) {
	src := sampling.NewSource([32]byte{26}, "fc-levels-missing")
	ctxProbe, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	slots := ctxProbe.Params.Slots()
	fc := synthFC(t, src, 16, 16, ctxProbe.Params.N()/2)
	// Only baby-step keys: every giant rotation is missing.
	babySteps := make([]int, 0, fc.B-1)
	for j := 1; j < fc.B; j++ {
		babySteps = append(babySteps, j)
	}
	k := newFCLevelKit(t, bfv.PresetTest(), 3, babySteps)
	x := make([]int64, fc.In)
	for i := range x {
		x[i] = 1
	}
	packed, err := fc.PackInput(x, slots)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := k.enc.EncryptInts(packed)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []int{1, 2, 3} {
		if _, _, err := fc.ApplyAtLevel(k.ev, k.ecd, ct, slots, level); err == nil {
			t.Errorf("level %d: expected missing-key error", level)
		} else if !strings.Contains(err.Error(), "missing Galois key") {
			t.Errorf("level %d: unexpected error: %v", level, err)
		}
		items := []BatchInput{{Ev: k.ev, Ct: ct}}
		if _, _, err := fc.ApplyBatchAtLevel(k.ecd, items, slots, nil, level); err == nil {
			t.Errorf("level %d: expected missing-key error from batch", level)
		} else if !strings.Contains(err.Error(), "missing Galois key") {
			t.Errorf("level %d: unexpected batch error: %v", level, err)
		}
	}
	if _, _, err := fc.ApplyAtLevel(k.ev, k.ecd, ct, slots, 7); err == nil {
		t.Error("expected unknown-level error")
	}
}

// TestFCRotationPlan pins the physical work ladder the bench prints:
// level by level, full key switches convert into lazy products and the
// mod-down count collapses to one.
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
	one, err := NewFCSpecOnly(1, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if lvl := one.HoistLevel(); lvl != 1 {
		t.Fatalf("1x1 HoistLevel = %d, want 1", lvl)
	}

	p1 := fc.Plan(1)
	if p1.FullKeySwitches != 14 || p1.LazyProducts != 0 || p1.ModDowns != 14 || p1.Decompositions != 8 {
		t.Errorf("level-1 plan %+v", p1)
	}
	p2 := fc.Plan(2)
	if p2.FullKeySwitches != 7 || p2.LazyProducts != 7 || p2.ModDowns != 8 || p2.NTTModDowns != 8 {
		t.Errorf("level-2 plan %+v", p2)
	}
	p3 := fc.Plan(3)
	if p3.FullKeySwitches != 0 || p3.LazyProducts != 14 || p3.ModDowns != 1 || p3.NTTModDowns != 8 {
		t.Errorf("level-3 plan %+v", p3)
	}
	for _, p := range []RotationPlan{p1, p2, p3} {
		if p.BabySteps != 7 || p.GiantSteps != 7 || p.PlainMults != 64 {
			t.Errorf("plan step counts %+v", p)
		}
		if p.String() == "" {
			t.Error("empty plan rendering")
		}
	}
	// LeNet-Sm's layer: 16 extended diagonals of period 512, not 303 square ones.
	lenet, err := NewFCSpecOnly(294, 10, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if p := lenet.Plan(3); lenet.P != 512 || lenet.Po != 16 || p.BabySteps != 3 || p.GiantSteps != 3 || p.PlainMults != 16 || p.ModDowns != 1 || p.NTTModDowns != 4 {
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
