package core

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"choco/internal/bfv"
	"choco/internal/par"
	"choco/internal/ring"
	"choco/internal/sampling"
)

// applyUnfused is the byte-identity oracle of the executor: the same BSGS
// schedule with nothing hoisted and nothing fused. Every baby pays its own
// decomposition and stays resident in QP; every weight plaintext is
// rebuilt; each giant's inner sum is one reduced multiply and one modular
// add per term over QP (ring.MulCoeffs, then ring.Add) in baby order,
// closed by one divide-by-P; each rotated inner sum pays its own full key
// switch (RotateRows) and the output folds them with Add in giant order.
// It shares only the geometry (the plan) with the engine under test.
func applyUnfused(k *kit, pl BSGSPlan[int64], ct *bfv.Ciphertext) (*bfv.Ciphertext, OpCounts, error) {
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
	var out *bfv.Ciphertext
	for gi, giant := range pl.Giants {
		var acc [2]*ring.Poly
		for bi, baby := range babies {
			diag := pl.Diag(gi, bi)
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
		if out == nil {
			out = inner
		} else {
			out = ev.Add(out, inner)
			ops.Adds++
		}
	}
	if out == nil {
		return nil, ops, fmt.Errorf("core: the transform has no contributing weights")
	}
	return out, ops, nil
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
// from coming back: a warm Conv2D.Apply (LeNet-Sm's conv2, two product
// tiles) or FC.Apply on the slot packing (the BSGS executor, 16 terms)
// whose outputs are recycled allocates bookkeeping only (slices,
// closures, ciphertext headers), never a polynomial per tile or term —
// the materialized schedule left ≈ 350 KB per plaintext multiply, 211 MB
// per LeNet-Sm request.
func TestWarmApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	old := par.Parallelism()
	par.SetParallelism(1)
	defer par.SetParallelism(old)

	spec := ConvSpec{InH: 14, InW: 14, InC: 4, KH: 5, KW: 5, OutC: 6}
	src := sampling.NewSource([32]byte{33}, "warm-apply-allocs")
	ctxProbe, err := bfv.NewContext(bfv.PresetB())
	if err != nil {
		t.Fatal(err)
	}
	slots := ctxProbe.Params.Slots()
	conv, err := NewConv2D(spec, synthConvWeights(src, spec.OutC, spec.InC, 25, 3), slots/2)
	if err != nil {
		t.Fatal(err)
	}
	fc := fcOnSlots(t, synthFC(t, src, 64, 10, slots/2))
	k := newFCLevelKit(t, bfv.PresetB(), 31, fc.RotationSteps())
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
	t.Logf("warm Apply: conv %.0f B/op (%d tiles), fc %.0f B/op (%d terms); one polynomial is %.0f B",
		convBytes, conv.Groups(), fcBytes, fc.Po, polyBytes)
	if convBytes > polyBytes {
		t.Errorf("warm Conv2D.Apply allocates %.0f B/op, want < one polynomial (%.0f B)", convBytes, polyBytes)
	}
	if fcBytes > polyBytes {
		t.Errorf("warm FC.Apply allocates %.0f B/op, want < one polynomial (%.0f B)", fcBytes, polyBytes)
	}
}
