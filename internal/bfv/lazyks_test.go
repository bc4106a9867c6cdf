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

// closeNTT closes a lone resident ciphertext the way an inner sum closes
// its terms: multiplied by the constant plaintext 1 into an accumulator
// and divided by P once.
func closeNTT(kit *testKit, x *NTTCiphertext) *Ciphertext {
	ones := make([]uint64, kit.ctx.Params.N())
	for i := range ones {
		ones[i] = 1
	}
	pt, err := kit.ecd.EncodeUints(ones)
	if err != nil {
		panic(err)
	}
	acc := kit.ev.NewNTTAccumulator()
	kit.ev.MulPlainAcc(acc, x, kit.ev.PrepareMul(pt))
	return kit.ev.FromNTT(acc)
}

// TestRotateRowsLazyNTTMatchesMaterialized pins the QP-resident rotation
// used for lazy baby steps: it has not paid its divide-by-P, and paying it
// alone (closeNTT) must give the materialized hoisted rotation byte for
// byte, on every preset, for every rotation the evaluator holds a key for
// (every power-of-two step in both directions, small odd ones, and zero:
// the lift, which divides exactly). All rotations start at once on a
// fresh decomposition, so the first use of the hoisted lift of c0 is
// concurrent — run under -race -count=10 by `make race`.
func TestRotateRowsLazyNTTMatchesMaterialized(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params Parameters
	}{
		{"PresetTest", PresetTest()},
		{"PresetA", PresetA()},
		{"PresetB", PresetB()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			steps := []int{3, -3, 5, -7}
			for s := 1; s < (1<<uint(tc.params.LogN))/2; s <<= 1 {
				steps = append(steps, s, -s)
			}
			kit := newTestKit(t, tc.params, steps...)
			steps = append(steps, 0)
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
				want, err := kit.ev.RotateRowsDecomposed(dc, s)
				if err != nil {
					t.Fatal(err)
				}
				got := closeNTT(kit, lazy[i])
				if !ctsIdentical(kit.ctx.RingQ, want, got) {
					t.Errorf("steps=%d: the resident rotation, divided by P, differs from RotateRowsDecomposed", s)
				}
				kit.ev.RecycleNTT(lazy[i])
				kit.ctx.RecycleCt(want)
				kit.ctx.RecycleCt(got)
			}
		})
	}
}

// TestMulPlainAccMatchesMulPlainChain pins the lazy inner sum on lifted
// operands, on every preset: ToNTT's P·NTT(c) has a zero special-prime
// row, so the divide-by-P that closes the chain is exact and the result is
// the MulPlain + Add chain on the materialized operands, byte for byte.
// That is the level-2 rung of the hoisting ladder.
func TestMulPlainAccMatchesMulPlainChain(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params Parameters
	}{
		{"PresetTest", PresetTest()},
		{"PresetA", PresetA()},
		{"PresetB", PresetB()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kit := newTestKit(t, tc.params, 1, 2)
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
				nx.Recycle()
			}
			lazy := kit.ev.FromNTT(acc)
			if !ctsIdentical(kit.ctx.RingQ, serial, lazy) {
				t.Error("lazy multiply-accumulate over lifted operands differs from the MulPlain+Add chain")
			}
		})
	}
}

// TestMulPlainAccOneRounding is the point of keeping the babies in QP: an
// inner sum of resident rotations decrypts to what the same sum of
// materialized rotations decrypts to, and has paid one rounding for the
// whole sum where the materialized one paid one per rotation, each scaled
// by its plaintext — so its noise budget is no smaller.
func TestMulPlainAccOneRounding(t *testing.T) {
	steps := []int{0, 1, 2, 5, -1, 3, -3, 7}
	kit := newTestKit(t, PresetB(), steps[1:]...)
	n := kit.ctx.Params.N()
	ct, err := kit.enc.EncryptUints(rampUints(n, kit.ctx.T.Value))
	if err != nil {
		t.Fatal(err)
	}
	dc, err := kit.ev.Decompose(ct)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Release()
	var serial *Ciphertext
	acc := kit.ev.NewNTTAccumulator()
	for i, s := range steps {
		vals := make([]int64, n)
		for j := range vals {
			vals[j] = int64((i*37+j)%15) - 7
		}
		pt, err := kit.ecd.EncodeInts(vals)
		if err != nil {
			t.Fatal(err)
		}
		pm := kit.ev.PrepareMul(pt)
		mat, err := kit.ev.RotateRowsDecomposed(dc, s)
		if err != nil {
			t.Fatal(err)
		}
		if term := kit.ev.MulPlain(mat, pm); serial == nil {
			serial = term
		} else {
			serial = kit.ev.Add(serial, term)
		}
		x, err := kit.ev.RotateRowsLazyNTT(dc, s)
		if err != nil {
			t.Fatal(err)
		}
		kit.ev.MulPlainAcc(acc, x, pm)
		kit.ev.RecycleNTT(x)
	}
	lazy := kit.ev.FromNTT(acc)
	want, got := kit.dec.Decrypt(serial), kit.dec.Decrypt(lazy)
	if !kit.ctx.RingT.Equal(want.Poly, got.Poly) {
		t.Fatal("the resident inner sum decrypts differently from the materialized one")
	}
	was, now := NoiseBudgetBits(kit.ctx, kit.sk, serial), NoiseBudgetBits(kit.ctx, kit.sk, lazy)
	t.Logf("inner sum of %d rotations at bfv-B: a rounding per rotation leaves %.2f bits, one per sum %.2f", len(steps), was, now)
	if now < was-0.05 {
		t.Errorf("one rounding per inner sum leaves %.2f bits, one per rotation %.2f: the resident sum may not cost noise", now, was)
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
