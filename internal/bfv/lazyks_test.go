package bfv

import (
	"strings"
	"sync"
	"testing"

	"choco/internal/par"
)

// TestQPAccumulatorMatchesSerialFold pins the tentpole guarantee of the
// lazy key-switch accumulator: accumulating a rotation sum in the QP
// basis and paying one shared FinalizeModDown is byte-identical to
// rotating per step on the materialized path and folding with Add, on
// every preset.
func TestQPAccumulatorMatchesSerialFold(t *testing.T) {
	steps := []int{0, 1, 2, 5, -1}
	keySteps := []int{1, 2, 5, -1}
	for _, tc := range []struct {
		name   string
		params Parameters
	}{
		{"PresetTest", PresetTest()},
		{"PresetA", PresetA()},
		{"PresetB", PresetB()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kit := newTestKit(t, tc.params, keySteps...)
			ct, err := kit.enc.EncryptUints(rampUints(kit.ctx.Params.N(), kit.ctx.T.Value))
			if err != nil {
				t.Fatal(err)
			}

			var serial *Ciphertext
			for _, s := range steps {
				term, err := kit.ev.RotateRows(ct, s)
				if err != nil {
					t.Fatal(err)
				}
				if serial == nil {
					serial = term
				} else {
					serial = kit.ev.Add(serial, term)
				}
			}

			dc, err := kit.ev.Decompose(ct)
			if err != nil {
				t.Fatal(err)
			}
			defer dc.Release()
			qa := kit.ev.NewQPAccumulator()
			for _, s := range steps {
				if err := kit.ev.AccumulateQP(qa, dc, s); err != nil {
					t.Fatal(err)
				}
			}
			lazy := kit.ev.FinalizeModDown(qa)
			if !ctsIdentical(kit.ctx.RingQ, serial, lazy) {
				t.Error("lazy rotation sum differs from serial rotate-and-fold")
			}

			// Worker-partitioned accumulators merged out of order must
			// finalize to the same bytes as the serial accumulator.
			qaA := kit.ev.NewQPAccumulator()
			qaB := kit.ev.NewQPAccumulator()
			for i, s := range steps {
				dst := qaA
				if i%2 == 1 {
					dst = qaB
				}
				if err := kit.ev.AccumulateQP(dst, dc, s); err != nil {
					t.Fatal(err)
				}
			}
			qaB.Merge(qaA)
			merged := kit.ev.FinalizeModDown(qaB)
			if !ctsIdentical(kit.ctx.RingQ, serial, merged) {
				t.Error("merged worker accumulators differ from serial fold")
			}
		})
	}
}

// TestRotateRowsLazyNTTMatchesMaterialized pins the NTT-domain rotation
// used for lazy baby steps: FromNTT(RotateRowsLazyNTT(dc, s)) must equal
// the materialized hoisted rotation byte for byte, including s = 0.
func TestRotateRowsLazyNTTMatchesMaterialized(t *testing.T) {
	steps := []int{0, 1, 2, 5, -1}
	kit := newTestKit(t, PresetB(), 1, 2, 5, -1)
	ct, err := kit.enc.EncryptUints(rampUints(kit.ctx.Params.N(), kit.ctx.T.Value))
	if err != nil {
		t.Fatal(err)
	}
	dc, err := kit.ev.Decompose(ct)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Release()
	for _, s := range steps {
		lazy, err := kit.ev.RotateRowsLazyNTT(dc, s)
		if err != nil {
			t.Fatal(err)
		}
		got := kit.ev.FromNTT(lazy)
		want, err := kit.ev.RotateRowsDecomposed(dc, s)
		if err != nil {
			t.Fatal(err)
		}
		if !ctsIdentical(kit.ctx.RingQ, want, got) {
			t.Errorf("steps=%d: NTT-domain rotation differs from materialized path", s)
		}
		kit.ctx.RecycleCt(got)
	}
}

// TestRotateRowsLazyNTTHoistedC0 pins the c0 half of the NTT-domain
// rotation at the paper's presets: with NTT(c0) hoisted into the
// decomposition and gathered per element, RotateRowsLazyNTT(dc, s)
// still equals ToNTT(RotateRowsDecomposed(dc, s)) residue for residue,
// for every rotation the evaluator holds a key for (every power-of-two
// step in both directions, plus small odd ones). All rotations start at
// once on a fresh decomposition, so the first use of the hoisted
// NTT(c0) is concurrent — run under -race -count=10 by `make race`.
func TestRotateRowsLazyNTTHoistedC0(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params Parameters
	}{
		{"PresetA", PresetA()},
		{"PresetB", PresetB()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			steps := []int{3, -3, 5, -7}
			for s := 1; s < (1<<uint(tc.params.LogN))/2; s <<= 1 {
				steps = append(steps, s, -s)
			}
			kit := newTestKit(t, tc.params, steps...)
			rQ := kit.ctx.RingQ
			ct, err := kit.enc.EncryptUints(rampUints(kit.ctx.Params.N(), kit.ctx.T.Value))
			if err != nil {
				t.Fatal(err)
			}
			dc, err := kit.ev.Decompose(ct)
			if err != nil {
				t.Fatal(err)
			}
			defer dc.Release()

			lazy := make([]*NTTCiphertext, len(steps))
			errs := make([]error, len(steps))
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i, s := range steps {
				wg.Add(1)
				go func(i, s int) {
					defer wg.Done()
					<-start
					lazy[i], errs[i] = kit.ev.RotateRowsLazyNTT(dc, s)
				}(i, s)
			}
			close(start)
			wg.Wait()

			for i, s := range steps {
				if errs[i] != nil {
					t.Fatalf("steps=%d: %v", s, errs[i])
				}
				mat, err := kit.ev.RotateRowsDecomposed(dc, s)
				if err != nil {
					t.Fatal(err)
				}
				want := kit.ev.ToNTT(mat)
				for h := range want.Value {
					if !rQ.Equal(want.Value[h], lazy[i].Value[h]) {
						t.Errorf("steps=%d: component %d differs from ToNTT(RotateRowsDecomposed)", s, h)
					}
				}
				kit.ev.RecycleNTT(want)
				kit.ev.RecycleNTT(lazy[i])
				kit.ctx.RecycleCt(mat)
			}
		})
	}
}

// TestMulPlainAccMatchesMulPlainChain pins the NTT-domain inner sum:
// accumulating plaintext products with MulPlainAcc and transforming once
// equals the MulPlain + Add chain on materialized operands, because the
// inverse NTT is linear.
func TestMulPlainAccMatchesMulPlainChain(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1, 2)
	n := kit.ctx.Params.N()
	ct, err := kit.enc.EncryptUints(rampUints(n, kit.ctx.T.Value))
	if err != nil {
		t.Fatal(err)
	}
	rots, err := kit.ev.RotateRowsHoisted(ct, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	terms := []*Ciphertext{ct, rots[0], rots[1]}
	pms := make([]*PlaintextMul, len(terms))
	for i := range pms {
		vals := make([]int64, n)
		for j := range vals {
			vals[j] = int64((i*37+j)%11) - 5
		}
		pt, err := kit.ecd.EncodeInts(vals)
		if err != nil {
			t.Fatal(err)
		}
		pms[i] = kit.ev.PrepareMul(pt)
	}

	var serial *Ciphertext
	for i, x := range terms {
		term := kit.ev.MulPlain(x, pms[i])
		if serial == nil {
			serial = term
		} else {
			serial = kit.ev.Add(serial, term)
		}
	}

	acc := kit.ev.NewNTTAccumulator()
	for i, x := range terms {
		nx := kit.ev.ToNTT(x)
		kit.ev.MulPlainAcc(acc, nx, pms[i])
		nx.Recycle(kit.ctx)
	}
	lazy := kit.ev.FromNTT(acc)
	if !ctsIdentical(kit.ctx.RingQ, serial, lazy) {
		t.Error("NTT-domain multiply-accumulate differs from MulPlain+Add chain")
	}
}

// TestLazyMissingGaloisKey pins the error paths of the lazy APIs.
func TestLazyMissingGaloisKey(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1)
	ct, err := kit.enc.EncryptUints(rampUints(kit.ctx.Params.N(), kit.ctx.T.Value))
	if err != nil {
		t.Fatal(err)
	}
	dc, err := kit.ev.Decompose(ct)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Release()
	if _, err := kit.ev.RotateRowsLazyNTT(dc, 3); err == nil {
		t.Fatal("expected missing-key error from RotateRowsLazyNTT")
	} else if !strings.Contains(err.Error(), "missing Galois key") {
		t.Fatalf("unexpected error: %v", err)
	}
	qa := kit.ev.NewQPAccumulator()
	defer qa.Release()
	if err := kit.ev.AccumulateQP(qa, dc, 3); err == nil {
		t.Fatal("expected missing-key error from AccumulateQP")
	} else if !strings.Contains(err.Error(), "missing Galois key") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestRotateRowsHoistedAllocs pins the allocation diet of the hoisted
// rotation path: with outputs recycled back into the ring scratch pool
// (as the FC kernel does), a steady-state batch-8 hoisted rotation at
// preset B allocates only bookkeeping — closure headers from the
// per-row fan-out and ciphertext headers, ~100 objects and a few KB
// per batch — never polynomial buffers. The pre-recycling path paid
// 182–236 allocs/op including fresh output polys per rotation
// (BENCH_rotations.json).
func TestRotateRowsHoistedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	old := par.Parallelism()
	par.SetParallelism(1) // serial fallback: no goroutine or closure overhead
	defer par.SetParallelism(old)
	steps := []int{1, 2, 3, 4, 5, 6, 7, 8}
	kit := newTestKit(t, PresetB(), steps...)
	ct, err := kit.enc.EncryptUints(rampUints(kit.ctx.Params.N(), kit.ctx.T.Value))
	if err != nil {
		t.Fatal(err)
	}
	batch := func() {
		outs, err := kit.ev.RotateRowsHoisted(ct, steps)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			kit.ctx.RecycleCt(o)
		}
	}
	for i := 0; i < 4; i++ { // warm the ring scratch pools
		batch()
	}
	a := testing.AllocsPerRun(16, batch)
	t.Logf("rotate-batch8-hoisted: %.1f allocs/op", a)
	// 100 is what the batch allocated before the key-switch core moved to
	// internal/rlwe; the shared core may not cost BFV an object.
	if a > 100 {
		t.Errorf("hoisted batch-8 rotation allocates %.1f objects/op, want <= 100", a)
	}
}
