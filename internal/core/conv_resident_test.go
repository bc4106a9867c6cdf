package core

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"choco/internal/bfv"
	"choco/internal/par"
	"choco/internal/ring"
	"choco/internal/sampling"
)

// applyUnfused is the byte-identity oracle of the executor: the same BSGS
// schedule with nothing hoisted and nothing fused. Every baby pays its own
// decomposition and stays resident in QP; every weight plaintext is
// rebuilt; each (output, giant) inner sum is one reduced multiply and one
// modular add per term over QP (ring.MulCoeffs, then ring.Add) in baby
// order, closed by one divide-by-P; each rotated inner sum pays its own
// full key switch (RotateRows) and the output folds them with Add in giant
// order. It shares only the geometry (the plan) with the engine under test.
func applyUnfused(k *kit, pl BSGSPlan[int64], ct *bfv.Ciphertext) ([]*bfv.Ciphertext, OpCounts, error) {
	var ops OpCounts
	ev, rQP := k.ev, k.ctx.RingQP
	babies := make([]*bfv.NTTCiphertext, len(pl.Babies))
	for bi, s := range pl.Babies {
		dc, err := ev.Decompose(ct)
		if err != nil {
			return nil, ops, err
		}
		babies[bi], err = ev.RotateRowsLazyNTT(dc, s)
		dc.Release()
		if err != nil {
			return nil, ops, err
		}
		if s != 0 {
			ops.Rotations++
		}
	}

	prod := rQP.NewPoly()
	outs := make([]*bfv.Ciphertext, pl.Outputs)
	for o := range outs {
		for gi, giant := range pl.Giants {
			var acc [2]*ring.Poly
			for bi, baby := range babies {
				diag := pl.Diag(o, gi, bi)
				if diag == nil {
					continue
				}
				pt, err := k.ecd.EncodeInts(diag)
				if err != nil {
					return nil, ops, err
				}
				pm := ev.PrepareMul(pt)
				ops.PlainMults++
				if acc[0] == nil {
					for h := range acc {
						acc[h] = rQP.NewPoly()
						acc[h].DeclareNTT()
					}
				} else {
					ops.Adds++
				}
				for h := range acc {
					rQP.MulCoeffs(baby.Value[h], pm.NTT, prod)
					rQP.Add(acc[h], prod, acc[h])
				}
			}
			if acc[0] == nil {
				continue
			}
			c0, c1 := k.ctx.ModDownPair(k.ctx.MaxLevel(), acc[0], acc[1])
			inner := &bfv.Ciphertext{Value: []*ring.Poly{c0, c1}}
			if giant != 0 {
				var err error
				if inner, err = ev.RotateRows(inner, giant); err != nil {
					return nil, ops, err
				}
				ops.Rotations++
			}
			if outs[o] == nil {
				outs[o] = inner
			} else {
				outs[o] = ev.Add(outs[o], inner)
				ops.Adds++
			}
		}
		if outs[o] == nil {
			return nil, ops, fmt.Errorf("core: output %d has no contributing weights", o)
		}
	}
	return outs, ops, nil
}

// residentPresets sizes one convolution per BFV preset so the window
// fills most of a row: few channel blocks, hence a few dozen rotation
// keys per session instead of hundreds, and one output channel more than
// a group of 2·Cb holds, so the last group is a single channel in row 0.
var residentPresets = []struct {
	name   string
	params bfv.Parameters
	spec   ConvSpec
}{
	{"PresetTest", bfv.PresetTest(), ConvSpec{InH: 14, InW: 14, InC: 2, KH: 3, KW: 3, OutC: 5}},
	{"PresetA", bfv.PresetA(), ConvSpec{InH: 28, InW: 28, InC: 3, KH: 3, KW: 3, OutC: 9}},
	{"PresetB", bfv.PresetB(), ConvSpec{InH: 20, InW: 20, InC: 2, KH: 3, KW: 3, OutC: 5}},
}

// TestConvResidentMatchesMaterialized is the tentpole property test:
// on every BFV preset the QP-resident convolution — babies off one
// hoisted decomposition with no mod-down, one unreduced 128-bit
// accumulation, one inverse NTT and one divide-by-P per (group, block
// shift), the shifted sums folded in QP, weight plaintexts prepared once —
// produces ciphertexts byte-identical to the unfused oracle (the same BSGS
// schedule as per-term reduced multiplies and adds over QP, a divide-by-P
// and RotateRows) with the same logical op counts, and the oracle decrypts
// to the plaintext convolution; for one worker and eight, a batch of one item
// and of three under distinct keys, a cold and a warm plaintext store,
// and a store too small to hold anything (every term rebuilt).
func TestConvResidentMatchesMaterialized(t *testing.T) {
	for _, tc := range residentPresets {
		t.Run(tc.name, func(t *testing.T) {
			src := sampling.NewSource([32]byte{31}, "conv-resident-"+tc.name)
			ctxProbe, err := bfv.NewContext(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			rowSize, slots := ctxProbe.Params.N()/2, ctxProbe.Params.Slots()
			weights := synthConvWeights(src, tc.spec.OutC, tc.spec.InC, tc.spec.KH*tc.spec.KW, 3)
			// A zero kernel tap in every channel of one output exercises
			// the skipped-term path without emptying a group.
			for c := range weights[0] {
				weights[0][c][0] = 0
			}
			newConv := func() *Conv2D {
				conv, err := NewConv2D(tc.spec, weights, rowSize)
				if err != nil {
					t.Fatal(err)
				}
				return convOnSlots(t, conv) // the shapes take the product packing as layers
			}
			oracle := newConv()

			const sessions = 3
			kits := make([]*kit, sessions)
			items := make([]BatchInput, sessions)
			want := make([][]*bfv.Ciphertext, sessions)
			wantOps := make([]OpCounts, sessions)
			images := make([][][]int64, sessions)
			for i := range kits {
				kits[i] = newFCLevelKit(t, tc.params, byte(20+i), oracle.RotationSteps())
				images[i] = synthImage(src, tc.spec.InC, tc.spec.InH*tc.spec.InW, 7)
				packed, err := oracle.PackInput(images[i], slots)
				if err != nil {
					t.Fatal(err)
				}
				ct, err := kits[i].enc.EncryptInts(packed)
				if err != nil {
					t.Fatal(err)
				}
				items[i] = BatchInput{Ev: kits[i].ev, Ct: ct}
				if want[i], wantOps[i], err = applyUnfused(kits[i], oracle.bsgs(slots), ct); err != nil {
					t.Fatal(err)
				}
			}
			if st := oracle.plains.Stats(); st.Hits+st.Misses != 0 {
				t.Fatalf("the oracle touched the operator's plaintext store: %+v", st)
			}

			check := func(label string, conv *Conv2D, batch []BatchInput, cache *PlainCache) {
				t.Helper()
				outs, ops, err := conv.ApplyBatch(kits[0].ecd, batch, slots, cache)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for i := range batch {
					if ops[i] != wantOps[i] {
						t.Errorf("%s: item %d op counts %+v, oracle %+v", label, i, ops[i], wantOps[i])
					}
					if len(outs[i]) != len(want[i]) {
						t.Fatalf("%s: item %d has %d groups, oracle %d", label, i, len(outs[i]), len(want[i]))
					}
					for g := range outs[i] {
						if !ctEqual(kits[i].ctx.RingQ, outs[i][g], want[i][g]) {
							t.Errorf("%s: item %d group %d differs from the unfused oracle", label, i, g)
						}
					}
				}
			}

			old := par.Parallelism()
			defer par.SetParallelism(old)
			for _, workers := range []int{1, 8} {
				par.SetParallelism(workers)
				for _, n := range []int{1, sessions} {
					label := fmt.Sprintf("workers=%d/batch=%d", workers, n)
					conv := newConv()
					check(label+"/cold", conv, items[:n], nil)
					cold := conv.plains.Stats()
					if cold.Entries == 0 || cold.Misses == 0 {
						t.Fatalf("%s: cold apply filled nothing: %+v", label, cold)
					}
					check(label+"/warm", conv, items[:n], nil)
					warm := conv.plains.Stats()
					if warm.Entries != cold.Entries || warm.Misses != cold.Misses || warm.Hits <= cold.Hits {
						t.Errorf("%s: warm apply rebuilt plaintexts: cold %+v, warm %+v", label, cold, warm)
					}

					tiny := NewPlainCache(8) // below one plaintext's footprint
					check(label+"/over-budget", conv, items[:n], tiny)
					// (All-zero diagonals are remembered as nil entries: 0 B.)
					if st := tiny.Stats(); st.Bytes != 0 || st.Rejected == 0 {
						t.Errorf("%s: over-budget store %+v, want no bytes held and rejected inserts", label, st)
					}
				}
				// Serial Apply is the same engine over one item.
				outs, ops, err := newConv().Apply(kits[0].ev, kits[0].ecd, items[0].Ct, slots)
				if err != nil {
					t.Fatal(err)
				}
				if ops != wantOps[0] {
					t.Errorf("workers=%d: Apply op counts %+v, oracle %+v", workers, ops, wantOps[0])
				}
				for g := range outs {
					if !ctEqual(kits[0].ctx.RingQ, outs[g], want[0][g]) {
						t.Errorf("workers=%d: Apply group %d differs from the unfused oracle", workers, g)
					}
				}
			}

			// The oracle itself still computes the convolution.
			plain := PlainConv2D(tc.spec, weights, images[0])
			for o := 0; o < tc.spec.OutC; o++ {
				got := oracle.ExtractOutput(kits[0].dec.DecryptInts(want[0][o/oracle.GroupSize()]), o)
				for i := range got {
					if got[i] != plain[o][i] {
						t.Fatalf("oracle output channel %d pixel %d: %d, plaintext conv %d", o, i, got[i], plain[o][i])
					}
				}
			}
		})
	}
}

// allocBytesPerRun reports the mean bytes allocated by one call of f,
// with the collector held off so the ring scratch pools keep what f
// returns to them.
func allocBytesPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f() // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestConvMissingGaloisKey drops one rotation key a convolution needs:
// Apply must fail with the missing element named, not panic, and must
// hand every polynomial it drew back to the ring scratch pools — the
// rotations that did succeed, the decomposition and its hoisted
// NTT(c0). The pools have no counters, so balance is read from the
// allocator: a balanced failing Apply reuses the same buffers call
// after call, a leaking one must allocate a fresh polynomial (64 KiB at
// this preset) for each one it lost.
func TestConvMissingGaloisKey(t *testing.T) {
	tc := residentPresets[2] // PresetB
	src := sampling.NewSource([32]byte{32}, "conv-missing-key")
	ctxProbe, err := bfv.NewContext(tc.params)
	if err != nil {
		t.Fatal(err)
	}
	slots := ctxProbe.Params.Slots()
	conv, err := NewConv2D(tc.spec, synthConvWeights(src, tc.spec.OutC, tc.spec.InC, 9, 3), slots/2)
	if err != nil {
		t.Fatal(err)
	}
	conv = convOnSlots(t, conv)
	steps := conv.RotationSteps()
	k := newFCLevelKit(t, tc.params, 30, steps[:len(steps)-1]) // a mid-layer step left out
	packed, err := conv.PackInput(synthImage(src, tc.spec.InC, tc.spec.InH*tc.spec.InW, 7), slots)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := k.enc.EncryptInts(packed)
	if err != nil {
		t.Fatal(err)
	}

	old := par.Parallelism()
	par.SetParallelism(1)
	defer par.SetParallelism(old)
	failing := func() {
		outs, _, err := conv.Apply(k.ev, k.ecd, ct, slots)
		if err == nil || !strings.Contains(err.Error(), "missing Galois key") {
			t.Fatalf("Apply without a needed rotation key: outs=%v err=%v", outs, err)
		}
	}
	failing()
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	polyBytes := float64(len(ct.Value[0].Coeffs) * ctxProbe.Params.N() * 8)
	if got := allocBytesPerRun(16, failing); got > polyBytes/2 {
		t.Errorf("a failing Apply allocates %.0f B/call, want < %.0f (half a polynomial): the scratch pools are not balanced", got, polyBytes/2)
	}
}

// TestInnerSumFailureBalancesPools fails an inner sum's second term,
// after the first has opened the wide accumulator. The sum must hand the
// accumulator's planes back to the key ring's pool, so a failing sum
// reuses the same buffers call after call; a dropped accumulator makes
// each call allocate four key-ring planes afresh.
func TestInnerSumFailureBalancesPools(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	k := newFCLevelKit(t, bfv.PresetB(), 35, nil)
	ctx := k.ev.Context()
	vals := make([]int64, ctx.Params.Slots())
	for i := range vals {
		vals[i] = int64(i%15) - 7
	}
	ct, err := k.enc.EncryptInts(vals)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := k.ecd.EncodeInts(vals)
	if err != nil {
		t.Fatal(err)
	}
	level := ctx.MaxLevel()
	x := operand{ctx.Context, level, ct.Value, k.ev.RotationKey}
	rot := []*ring.Poly{ctx.LiftNTT(level, ct.Value[0]), ctx.LiftNTT(level, ct.Value[1])}
	pm := k.ev.PrepareMul(pt).NTT
	errTerm := errors.New("the second term fails")
	failing := func() {
		_, _, err := innerSum(x, 2, func(i int) ([]*ring.Poly, *ring.Poly, error) {
			if i == 1 {
				return nil, nil, errTerm
			}
			return rot, pm, nil
		})
		if !errors.Is(err, errTerm) {
			t.Fatalf("innerSum with a failing term: %v", err)
		}
	}
	polyBytes := float64(len(ct.Value[0].Coeffs) * ctx.Params.N() * 8)
	if got := allocBytesPerRun(16, failing); got > polyBytes/2 {
		t.Errorf("a failing inner sum allocates %.0f B/call, want < %.0f (half a polynomial): the accumulator is not handed back", got, polyBytes/2)
	}
}

// TestWarmApplyAllocs is the ceiling that keeps the per-term garbage
// from coming back: a warm Conv2D.Apply or FC.Apply whose outputs are
// recycled allocates bookkeeping only (slices, closures, ciphertext
// headers), never a polynomial per term — the materialized schedule
// left ≈ 350 KB per plaintext multiply, 211 MB per LeNet-Sm request.
func TestWarmApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	old := par.Parallelism()
	par.SetParallelism(1)
	defer par.SetParallelism(old)

	tc := residentPresets[2] // PresetB
	src := sampling.NewSource([32]byte{33}, "warm-apply-allocs")
	ctxProbe, err := bfv.NewContext(tc.params)
	if err != nil {
		t.Fatal(err)
	}
	slots := ctxProbe.Params.Slots()
	conv, err := NewConv2D(tc.spec, synthConvWeights(src, tc.spec.OutC, tc.spec.InC, 9, 3), slots/2)
	if err != nil {
		t.Fatal(err)
	}
	conv = convOnSlots(t, conv)
	fc := synthFC(t, src, 64, 10, slots/2)
	k := newFCLevelKit(t, tc.params, 31, append(conv.RotationSteps(), fc.RotationSteps()...))
	vals := make([]int64, slots)
	for i := range vals {
		vals[i] = int64(src.Intn(15)) - 7
	}
	ct, err := k.enc.EncryptInts(vals)
	if err != nil {
		t.Fatal(err)
	}
	polyBytes := float64(len(ct.Value[0].Coeffs) * ctxProbe.Params.N() * 8)

	convBytes := allocBytesPerRun(8, func() {
		outs, _, err := conv.Apply(k.ev, k.ecd, ct, slots)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			k.ev.RecycleCt(o)
		}
	})
	fcBytes := allocBytesPerRun(8, func() {
		out, _, err := fc.Apply(k.ev, k.ecd, ct, slots)
		if err != nil {
			t.Fatal(err)
		}
		k.ev.RecycleCt(out)
	})
	t.Logf("warm Apply: conv %.0f B/op (%d terms), fc %.0f B/op (%d terms); one polynomial is %.0f B",
		convBytes, conv.Cb*9*conv.Groups(), fcBytes, fc.Po, polyBytes)
	if convBytes > polyBytes {
		t.Errorf("warm Conv2D.Apply allocates %.0f B/op, want < one polynomial (%.0f B)", convBytes, polyBytes)
	}
	if fcBytes > polyBytes {
		t.Errorf("warm FC.Apply allocates %.0f B/op, want < one polynomial (%.0f B)", fcBytes, polyBytes)
	}
}

// TestConvBSGSEdgeGeometries decrypts the convolution on the slot
// packing against PlainConv2D where the BSGS split, the two-row layout or
// the channel replication degenerates (three of the shapes take the
// product packing as layers; convOnSlots keeps them here): input channels that do not divide the blocks
// (packed once, so some block shifts are dead and get no key) with so
// few outputs that row 1 stays empty, or with every shift live; channels
// repeated across the blocks, where InC shifts reach them all, with an
// output count that fills row 1 only partly, one that leaves the last of
// two groups partly filled, and one channel in two blocks (one group,
// no giants); and a single block per row (no giants at all — the inner
// sum is the output, and a group is one channel per row). Each runs
// under exactly RotationSteps() keys, byte-identical to the oracle, and
// with no zero weight its key switches are the plan's.
func TestConvBSGSEdgeGeometries(t *testing.T) {
	for _, tc := range []struct {
		name             string
		spec             ConvSpec
		cb, keys, giants int
	}{
		// Stride 64 → 16 blocks, 3 ∤ 16 so channels 0–2 sit in blocks
		// 0–2 alone; one group of 32 with 5 channels, all in row 0, so
		// shifts 3–11 read no channel.
		{"InC<Cb,OutC<=Cb", ConvSpec{InH: 6, InW: 6, InC: 3, KH: 3, KW: 3, OutC: 5}, 16, 8 + 6, 6},
		// 8 channels repeat twice over 16 blocks: 8 shifts. One group,
		// row 1 holding 3 of 16 blocks.
		{"Cb<OutC<2Cb", ConvSpec{InH: 6, InW: 6, InC: 8, KH: 3, KW: 3, OutC: 19}, 16, 8 + 7, 7},
		// Two groups, the second holding 3 of 32 channels: every shift is
		// live in both.
		{"OutC%2Cb!=0", ConvSpec{InH: 6, InW: 6, InC: 8, KH: 3, KW: 3, OutC: 35}, 16, 8 + 7, 14},
		// Stride 512 → 2 blocks, both holding the one channel: one group
		// of 4, no giants.
		{"InC=1,Cb=2", ConvSpec{InH: 16, InW: 16, InC: 1, KH: 3, KW: 3, OutC: 4}, 2, 8, 0},
		// Stride 128 → 8 blocks holding channels 0,1,0,1,…: shifts 0 and
		// 1 reach both, one giant.
		{"InC=2,Cb=8", ConvSpec{InH: 8, InW: 8, InC: 2, KH: 3, KW: 3, OutC: 10}, 8, 8 + 1, 1},
		// 3 ∤ 8: blocks 3–7 stay empty and all 8 shifts are live for a
		// group that fills row 0.
		{"InC=3,Cb=8", ConvSpec{InH: 8, InW: 8, InC: 3, KH: 3, KW: 3, OutC: 12}, 8, 8 + 7, 7},
		// Stride 1024 fills the row: two groups of one channel per row,
		// the second with row 1 empty.
		{"Cb=1", ConvSpec{InH: 28, InW: 28, InC: 1, KH: 3, KW: 3, OutC: 3}, 1, 8, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := sampling.NewSource([32]byte{34}, "conv-edge-"+tc.name)
			weights := synthConvWeights(src, tc.spec.OutC, tc.spec.InC, 9, 3)
			for _, out := range weights {
				for _, in := range out {
					for i, w := range in {
						if w == 0 {
							in[i] = 1
						}
					}
				}
			}
			conv, err := NewConv2D(tc.spec, weights, 1024)
			if err != nil {
				t.Fatal(err)
			}
			conv = convOnSlots(t, conv)
			steps, plan := conv.RotationSteps(), conv.Plan()
			if conv.Cb != tc.cb || len(steps) != tc.keys || plan.GiantSteps != tc.giants {
				t.Fatalf("Cb = %d, %d rotation steps, %d giant steps; want %d, %d, %d", conv.Cb, len(steps), plan.GiantSteps, tc.cb, tc.keys, tc.giants)
			}
			k := newKit(t, steps)
			slots := k.ctx.Params.Slots()
			image := synthImage(src, tc.spec.InC, tc.spec.InH*tc.spec.InW, 7)
			packed, err := conv.PackInput(image, slots)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := k.enc.EncryptInts(packed)
			if err != nil {
				t.Fatal(err)
			}
			outs, ops, err := conv.Apply(k.ev, k.ecd, ct, slots)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOps, err := applyUnfused(k, conv.bsgs(slots), ct)
			if err != nil {
				t.Fatal(err)
			}
			if ops != wantOps || ops.Rotations != plan.LazyProducts || ops.PlainMults != plan.PlainMults {
				t.Errorf("op counts %+v, oracle %+v, plan %v", ops, wantOps, plan)
			}
			plain := PlainConv2D(tc.spec, weights, image)
			for o := 0; o < tc.spec.OutC; o++ {
				g := o / conv.GroupSize()
				if !ctEqual(k.ctx.RingQ, outs[g], want[g]) {
					t.Fatalf("group %d differs from the unfused oracle", g)
				}
				got := conv.ExtractOutput(k.dec.DecryptInts(outs[g]), o)
				for i := range got {
					if got[i] != plain[o][i] {
						t.Fatalf("channel %d pixel %d: got %d, plaintext conv %d", o, i, got[i], plain[o][i])
					}
				}
			}
		})
	}
}

// applyFlat is the schedule Conv2D ran before BSGS, kept only to price
// the noise of the new one: the input rotated once per (block shift,
// kernel offset) alignment, so every key switch happens before the
// plaintext multiplies and none after.
func (c *Conv2D) applyFlat(ev *bfv.Evaluator, ecd *bfv.Encoder, ct *bfv.Ciphertext, slots int) ([]*bfv.Ciphertext, error) {
	outs := make([]*bfv.Ciphertext, c.Groups())
	for g := range outs {
		for d := 0; d < c.shifts(); d++ {
			for ki, delta := range c.kernelOffsets() {
				diag := c.weightDiag(g, d, ki, slots)
				if diag == nil {
					continue
				}
				// Undo weightDiag's −d·Stride pre-rotation, per row.
				flat := make([]int64, len(diag))
				for i := range flat {
					row, col := i/c.rowSize, i%c.rowSize
					flat[i] = diag[row*c.rowSize+(col+d*c.Layout.Stride)%c.rowSize]
				}
				pt, err := ecd.EncodeInts(flat)
				if err != nil {
					return nil, err
				}
				x := ct
				if s := c.step(d, delta); s != 0 {
					if x, err = ev.RotateRows(ct, s); err != nil {
						return nil, err
					}
				}
				term := ev.MulPlain(x, ev.PrepareMul(pt))
				if outs[g] == nil {
					outs[g] = term
				} else {
					outs[g] = ev.Add(outs[g], term)
				}
			}
		}
	}
	return outs, nil
}

// TestConvBSGSNoise checks the noise cost of the slot schedule instead of
// assuming it, in fractions of a bit (bfv.NoiseBudgetBits — whole bits
// put conv2 on an integer edge). The giants add one key-switch noise
// term after the plaintext multiplies, where the flat schedule paid all
// of them before; and the two-row layout makes one ciphertext carry the
// noise of twice as many channels, priced against the same layer cut to
// the channels of row 0. On LeNet-Sm's conv2 (14×14, 5×5 kernel, 4 → 6
// channels, 4-bit weights and activations) and conv1 (28×28, 1 → 4) at
// bfv-B, and on conv2's window with the channel counts a Test-preset row
// holds, all on the slot packing (conv1 and the Test-preset window take
// the product packing as layers, whose budgets TestProductNoise pins;
// convOnSlots keeps them here), every output group must keep its budget to within 2 bits of the
// flat schedule's (measured: 1.7 on conv2, whose integer reading happened
// to move by one) and 0.2 bit of the one-row layer's (0.5 at the Test
// preset, where row 1 adds half as many channels again), with at least
// 4.5 bits left — and within 0.05 bit of what it kept when every baby paid
// its own mod-down (the `was` field; one rounding per inner sum reads the
// same to the hundredth). Both schedules decrypt to the same activations.
func TestConvBSGSNoise(t *testing.T) {
	for _, tc := range []struct {
		name    string
		params  bfv.Parameters
		spec    ConvSpec
		rowCost float64   // bits the second row may cost
		was     []float64 // per group, the budget a mod-down per baby left (conv1: its one group's reading)
	}{
		{"bfv-B/conv2", bfv.PresetB(), ConvSpec{InH: 14, InW: 14, InC: 4, KH: 5, KW: 5, OutC: 6}, 0.2, []float64{5.99}},
		{"bfv-B/conv1", bfv.PresetB(), ConvSpec{InH: 28, InW: 28, InC: 1, KH: 5, KW: 5, OutC: 4}, 0.2, []float64{8.91}},
		{"Test/conv2", bfv.PresetTest(), ConvSpec{InH: 14, InW: 14, InC: 2, KH: 5, KW: 5, OutC: 3}, 0.5, []float64{17.58}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := sampling.NewSource([32]byte{35}, "conv-noise-"+tc.name)
			ctxProbe, err := bfv.NewContext(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			slots := ctxProbe.Params.Slots()
			weights := synthConvWeights(src, tc.spec.OutC, tc.spec.InC, 25, 7)
			conv, err := NewConv2D(tc.spec, weights, slots/2)
			if err != nil {
				t.Fatal(err)
			}
			conv = convOnSlots(t, conv)
			var flatSteps []int
			for d := 0; d < conv.shifts(); d++ {
				for _, delta := range conv.kernelOffsets() {
					flatSteps = append(flatSteps, conv.step(d, delta))
				}
			}
			k := newFCLevelKit(t, tc.params, 40, flatSteps)
			packed, err := conv.PackInput(synthImage(src, tc.spec.InC, tc.spec.InH*tc.spec.InW, 7), slots)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := k.enc.EncryptInts(packed)
			if err != nil {
				t.Fatal(err)
			}
			fresh := bfv.NoiseBudgetBits(k.ctx, k.sk, ct)
			flat, err := conv.applyFlat(k.ev, k.ecd, ct, slots)
			if err != nil {
				t.Fatal(err)
			}
			bsgs, _, err := conv.Apply(k.ev, k.ecd, ct, slots)
			if err != nil {
				t.Fatal(err)
			}
			for g := range bsgs {
				// The same group cut to the channels row 0 holds.
				rowSpec, first := tc.spec, g*conv.GroupSize()
				rowSpec.OutC = min(conv.Cb, tc.spec.OutC-first)
				oneRow, err := NewConv2D(rowSpec, weights[first:first+rowSpec.OutC], slots/2)
				if err != nil {
					t.Fatal(err)
				}
				oneRow = convOnSlots(t, oneRow)
				row0, _, err := oneRow.Apply(k.ev, k.ecd, ct, slots)
				if err != nil {
					t.Fatal(err)
				}
				was, one, now := bfv.NoiseBudgetBits(k.ctx, k.sk, flat[g]), bfv.NoiseBudgetBits(k.ctx, k.sk, row0[0]), bfv.NoiseBudgetBits(k.ctx, k.sk, bsgs[g])
				t.Logf("%s group %d: fresh input %.2f bits, flat schedule %.2f, BSGS on row 0 alone %.2f, BSGS on both rows %.2f", tc.name, g, fresh, was, one, now)
				if now < tc.was[g]-0.05 {
					t.Errorf("group %d: %.2f bits of noise budget left, a mod-down per baby left %.2f", g, now, tc.was[g])
				}
				if now < was-2 || now < one-tc.rowCost || now < 4.5 {
					t.Errorf("group %d: BSGS leaves %.2f bits of noise budget, the flat schedule %.2f, one row %.2f; want within 2 bits of flat, %.1f bit of one row, and at least 4.5 left", g, now, was, one, tc.rowCost)
				}
				a, b := k.dec.DecryptInts(flat[g]), k.dec.DecryptInts(bsgs[g])
				for o := first; o < first+conv.GroupSize() && o < tc.spec.OutC; o++ {
					fa, fb := conv.ExtractOutput(a, o), conv.ExtractOutput(b, o)
					for i := range fa {
						if fa[i] != fb[i] {
							t.Fatalf("channel %d pixel %d: flat %d, BSGS %d", o, i, fa[i], fb[i])
						}
					}
				}
			}
		})
	}
}
