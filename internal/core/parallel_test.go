package core

import (
	"bytes"
	"testing"

	"choco/internal/bfv"
	"choco/internal/par"
	"choco/internal/protocol"
	"choco/internal/ring"
	"choco/internal/sampling"
)

// TestParallelPipelineDeterminism guards the per-worker-accumulator
// reduction order: an encrypt→conv→rotate→decrypt round trip must
// produce byte-identical ciphertexts and identical noise-budget
// readings whether the kernels run serially or fanned out across the
// worker pool (with the ring-level thresholds forced low so the
// residue fan-out is exercised too).
func TestParallelPipelineDeterminism(t *testing.T) {
	spec := ConvSpec{InH: 8, InW: 8, InC: 2, KH: 3, KW: 3, OutC: 3}
	src := sampling.NewSource([32]byte{9}, "par-determinism")
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
	const rotStep = 5
	k := newKit(t, []int{rotStep})

	packed, err := conv.PackInput(image, k.ctx.Params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	// Encrypt once; the server-side pipeline below is what must be
	// schedule-independent.
	ct, err := k.enc.EncryptInts(packed)
	if err != nil {
		t.Fatal(err)
	}

	pipeline := func() ([][]byte, []int, [][]int64) {
		outs, _, err := conv.Apply(k.ev, k.ecd, ct, k.ctx.Params.Slots())
		if err != nil {
			t.Fatal(err)
		}
		var blobs [][]byte
		var budgets []int
		var plains [][]int64
		for _, o := range outs {
			r, err := k.ev.RotateRows(o, rotStep)
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, protocol.MarshalBFV(r))
			budgets = append(budgets, bfv.NoiseBudget(k.ctx, k.sk, r))
			plains = append(plains, k.ecd.DecodeInts(k.dec.Decrypt(r)))
		}
		return blobs, budgets, plains
	}

	oldP := par.Parallelism()
	t.Cleanup(func() { par.SetParallelism(oldP) })

	par.SetParallelism(1)
	serialBlobs, serialBudgets, serialPlains := pipeline()

	par.SetParallelism(8)
	ring.SetParallelThresholds(1, 1, 1)
	t.Cleanup(func() { ring.SetParallelThresholds(8<<10, 16<<10, 32<<10) })
	parBlobs, parBudgets, parPlains := pipeline()

	if len(serialBlobs) != len(parBlobs) {
		t.Fatalf("group count changed: %d vs %d", len(serialBlobs), len(parBlobs))
	}
	for g := range serialBlobs {
		if !bytes.Equal(serialBlobs[g], parBlobs[g]) {
			t.Errorf("group %d: parallel ciphertext is not byte-identical to serial", g)
		}
		if serialBudgets[g] != parBudgets[g] {
			t.Errorf("group %d: noise budget %d (serial) vs %d (parallel)", g, serialBudgets[g], parBudgets[g])
		}
		for i := range serialPlains[g] {
			if serialPlains[g][i] != parPlains[g][i] {
				t.Errorf("group %d slot %d: decrypted value diverged", g, i)
				break
			}
		}
	}
}

// TestHoistedBatchParallelDeterminism pins the hoisted rotation batch
// the same way TestParallelPipelineDeterminism pins the kernels: the
// shared decomposition is read-only and each Galois element's key
// switch is scratch-local, so fanning the batch across the worker pool
// (with the ring-level fan-out thresholds forced low) must reproduce
// the serial schedule's ciphertext bytes exactly.
func TestHoistedBatchParallelDeterminism(t *testing.T) {
	steps := []int{1, 2, 3, 5, 7, -1, -3, -6}
	k := newKit(t, steps)
	src := sampling.NewSource([32]byte{11}, "hoist-par")
	vals := make([]int64, k.ctx.Params.Slots())
	for i := range vals {
		vals[i] = int64(src.Intn(64)) - 32
	}
	ct, err := k.enc.EncryptInts(vals)
	if err != nil {
		t.Fatal(err)
	}

	batch := func() [][]byte {
		outs, err := k.ev.RotateRowsHoisted(ct, steps)
		if err != nil {
			t.Fatal(err)
		}
		blobs := make([][]byte, len(outs))
		for i, o := range outs {
			blobs[i] = protocol.MarshalBFV(o)
		}
		return blobs
	}

	oldP := par.Parallelism()
	t.Cleanup(func() { par.SetParallelism(oldP) })

	par.SetParallelism(1)
	serial := batch()

	par.SetParallelism(8)
	ring.SetParallelThresholds(1, 1, 1)
	t.Cleanup(func() { ring.SetParallelThresholds(8<<10, 16<<10, 32<<10) })
	parallel := batch()

	for i := range serial {
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Errorf("steps=%d: parallel hoisted ciphertext is not byte-identical to serial", steps[i])
		}
	}
}

// TestFCApplyNaiveParallelDeterminism pins ApplyNaive — the flat plan on
// the shared executor — to the same bytes and operation counts for one
// worker and four, on a rectangular layer (8 extended diagonals, 4
// partial sums per output) that decrypts to PlainFC.
func TestFCApplyNaiveParallelDeterminism(t *testing.T) {
	in, out := 32, 6
	src := sampling.NewSource([32]byte{10}, "fc-par")
	weights := make([][]int64, out)
	for o := range weights {
		weights[o] = make([]int64, in)
		for i := range weights[o] {
			weights[o][i] = int64(src.Intn(15)) - 7
		}
	}
	ctxProbe, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	fc, err := NewFC(in, out, weights, ctxProbe.Params.N()/2)
	if err != nil {
		t.Fatal(err)
	}
	fc = fcOnSlots(t, fc) // ApplyNaive is the slot packing's ablation
	k := newKit(t, fc.NaiveRotationSteps())

	x := make([]int64, in)
	for i := range x {
		x[i] = int64(src.Intn(9)) - 4
	}
	packed, err := fc.PackInput(x, k.ctx.Params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := k.enc.EncryptInts(packed)
	if err != nil {
		t.Fatal(err)
	}

	oldP := par.Parallelism()
	t.Cleanup(func() { par.SetParallelism(oldP) })

	par.SetParallelism(1)
	serialCt, serialOps, err := fc.ApplyNaive(k.ev, k.ecd, ct, k.ctx.Params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	par.SetParallelism(4)
	parCt, parOps, err := fc.ApplyNaive(k.ev, k.ecd, ct, k.ctx.Params.Slots())
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(protocol.MarshalBFV(serialCt), protocol.MarshalBFV(parCt)) {
		t.Error("ApplyNaive parallel result is not byte-identical to serial")
	}
	if want := (OpCounts{Rotations: 7, PlainMults: 8, Adds: 7}); serialOps != want || parOps != want {
		t.Errorf("op counts: serial %+v, parallel %+v, want %+v", serialOps, parOps, want)
	}
	got, want := fc.ExtractOutput(k.dec.DecryptInts(parCt), k.ctx.T.Value), PlainFC(weights, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output %d: naive %d, plain reference %d", i, got[i], want[i])
		}
	}
}
