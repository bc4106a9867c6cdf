package core

import (
	"fmt"
	"sync"

	"choco/internal/bfv"
	"choco/internal/par"
)

// The linear-layer engine. Conv2D and FC both evaluate a diagonal
// linear transform: a set of rotations of one input, a fixed weight
// plaintext per (rotation, output) term, and a sum per output. Both run
// it NTT-resident over a batch of sessions' inputs, and serial Apply is
// a batch of one:
//
//   - each item pays one hoisted decomposition of its input, and every
//     rotation lands directly in the NTT domain (nttRotations) — the
//     coefficient-domain rotation is never materialized;
//   - each output accumulates its terms in the NTT domain and pays one
//     inverse NTT for the whole sum (innerSum), byte-identical to a
//     MulPlain + Add chain because the inverse NTT is linear
//     (DESIGN.md §13);
//   - the weight-side plaintext pipeline (EncodeInts of each diagonal +
//     PrepareMul's lift and forward NTT) depends only on the layer's
//     weights and the parameter preset, never on the session, so one
//     prepared plaintext serves every item and every later request — a
//     PlainCache carries it: the serving tier's shared one, or the
//     operator's own when the caller passes none;
//   - the (item, rotation) and (item, output) work of the whole batch
//     fans out in flat worker-pool dispatches, so key switches from
//     different requests overlap instead of serializing per request.
//
// Terms run in a fixed order per output, and every intermediate is
// exact modular arithmetic, so per-item outputs are byte-identical for
// any batch composition, worker count or cache state.

// BatchInput is one session's work item in a cross-request batch: its
// packed input ciphertext and the evaluator holding that session's
// evaluation keys. All items of a batch must share one parameter
// preset (one bfv.Context).
type BatchInput struct {
	Ev *bfv.Evaluator
	Ct *bfv.Ciphertext
}

// PlainCache retains prepared weight plaintexts (the PrepareMul'd form
// MulPlain consumes) keyed by operator identity and term index, shared
// across sessions and requests. Entries are immutable once built —
// weights are fixed at model compile time — so the cache never
// invalidates; it only stops inserting when the byte budget is
// reached (the working set is the model's diagonal count, so for a
// given model it either fits or the overflow terms are rebuilt per
// batch). Safe for concurrent use.
type PlainCache struct {
	budget int64

	mu    sync.Mutex
	bytes int64
	m     map[plainKey]*bfv.PlaintextMul

	hits, misses, rejected int64
}

type plainKey struct {
	op  any
	idx int
}

// DefaultPlainCacheBytes bounds a PlainCache built with budget <= 0.
const DefaultPlainCacheBytes = 256 << 20

// NewPlainCache builds a prepared-plaintext cache with the given byte
// budget (<= 0 selects DefaultPlainCacheBytes).
func NewPlainCache(budgetBytes int64) *PlainCache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultPlainCacheBytes
	}
	return &PlainCache{budget: budgetBytes, m: map[plainKey]*bfv.PlaintextMul{}}
}

// PlainCacheStats is a point-in-time snapshot of cache effectiveness:
// hits are terms whose encode+NTT pipeline was skipped entirely.
type PlainCacheStats struct {
	Entries  int
	Bytes    int64
	Hits     int64
	Misses   int64
	Rejected int64 // inserts skipped because the byte budget was reached
}

// Stats returns a snapshot of the cache counters.
func (pc *PlainCache) Stats() PlainCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PlainCacheStats{
		Entries:  len(pc.m),
		Bytes:    pc.bytes,
		Hits:     pc.hits,
		Misses:   pc.misses,
		Rejected: pc.rejected,
	}
}

func pmBytes(pm *bfv.PlaintextMul) int64 {
	var n int64
	for _, row := range pm.NTT.Coeffs {
		n += int64(len(row)) * 8
	}
	return n
}

// getOrBuild returns the prepared plaintext for (op, idx), building it
// outside the lock on a miss. A nil value is cached too: it records an
// all-zero diagonal whose term Apply skips, so the zero check is not
// repaid every batch. Concurrent builders of the same key may duplicate
// work; the values are deterministic, so whichever insert lands is
// correct.
func (pc *PlainCache) getOrBuild(op any, idx int, build func() (*bfv.PlaintextMul, error)) (*bfv.PlaintextMul, error) {
	if pc == nil {
		return build()
	}
	k := plainKey{op: op, idx: idx}
	pc.mu.Lock()
	if pm, ok := pc.m[k]; ok {
		pc.hits++
		pc.mu.Unlock()
		return pm, nil
	}
	pc.misses++
	pc.mu.Unlock()

	pm, err := build()
	if err != nil {
		return nil, err
	}
	var size int64
	if pm != nil {
		size = pmBytes(pm)
	}
	pc.mu.Lock()
	if _, ok := pc.m[k]; !ok {
		if pc.bytes+size <= pc.budget {
			pc.m[k] = pm
			pc.bytes += size
		} else {
			pc.rejected++
		}
	}
	pc.mu.Unlock()
	return pm, nil
}

// prepared returns the PrepareMul'd form of the weight vector diag()
// for term (op, idx), built and cached on a miss; a nil vector (an
// all-zero diagonal) yields a nil plaintext.
func (pc *PlainCache) prepared(op any, idx int, ev *bfv.Evaluator, ecd *bfv.Encoder, diag func() []int64) (*bfv.PlaintextMul, error) {
	return pc.getOrBuild(op, idx, func() (*bfv.PlaintextMul, error) {
		v := diag()
		if v == nil {
			return nil, nil
		}
		pt, err := ecd.EncodeInts(v)
		if err != nil {
			return nil, err
		}
		return ev.PrepareMul(pt), nil
	})
}

// nttRotations returns, per item, the input rotated by each of steps,
// resident in the NTT domain (a zero step is the input itself). Each
// item pays one hoisted decomposition; every (item, step) key switch of
// the batch then runs in one flat dispatch. materialize selects the
// level-2 schedule (rotate in the coefficient domain, then transform)
// kept for the hoisting-level ladder. On error nothing is left
// outstanding; on success the caller owns the result (recycleRotations).
func nttRotations(items []BatchInput, steps []int, materialize bool) (rots [][]*bfv.NTTCiphertext, err error) {
	rots = make([][]*bfv.NTTCiphertext, len(items))
	dcs := make([]*bfv.DecomposedCiphertext, len(items))
	defer func() {
		for _, dc := range dcs {
			if dc != nil {
				dc.Release()
			}
		}
		if err != nil {
			recycleRotations(items, rots)
			rots = nil
		}
	}()
	// Decompositions run serially: each already fans its digit NTTs
	// across the pool. They also reject malformed inputs before ToNTT
	// (which panics on them) sees one.
	for i, it := range items {
		rots[i] = make([]*bfv.NTTCiphertext, len(steps))
		if dcs[i], err = it.Ev.Decompose(it.Ct); err != nil {
			return rots, err
		}
	}
	n := len(steps)
	errs := make([]error, len(items)*n)
	par.For(len(items)*n, func(k int) {
		item, j := k/n, k%n
		ev, dc := items[item].Ev, dcs[item]
		if !materialize || steps[j] == 0 {
			rots[item][j], errs[k] = ev.RotateRowsLazyNTT(dc, steps[j])
			return
		}
		r, err := ev.RotateRowsDecomposed(dc, steps[j])
		if err != nil {
			errs[k] = err
			return
		}
		rots[item][j] = ev.ToNTT(r)
		ev.RecycleCt(r)
	})
	for _, e := range errs {
		if e != nil {
			return rots, e
		}
	}
	return rots, nil
}

// recycleRotations returns every rotation of nttRotations' result to
// the scratch pool.
func recycleRotations(items []BatchInput, rots [][]*bfv.NTTCiphertext) {
	for i, rs := range rots {
		for _, r := range rs {
			if r != nil {
				items[i].Ev.RecycleNTT(r)
			}
		}
	}
}

// innerSum accumulates one output's n terms in order, in the NTT
// domain, and pays a single inverse NTT for the sum. term(k) yields the
// rotated input and prepared weight plaintext of term k; a nil
// plaintext marks an all-zero diagonal, skipped without counting.
// Returns a nil ciphertext when every term is zero.
func innerSum(ev *bfv.Evaluator, n int, term func(k int) (*bfv.NTTCiphertext, *bfv.PlaintextMul, error)) (*bfv.Ciphertext, OpCounts, error) {
	var ops OpCounts
	var acc *bfv.NTTCiphertext
	for k := 0; k < n; k++ {
		x, pm, err := term(k)
		if err != nil {
			if acc != nil {
				ev.RecycleNTT(acc)
			}
			return nil, ops, err
		}
		if pm == nil {
			continue
		}
		if acc == nil {
			acc = ev.NewNTTAccumulator()
		} else {
			ops.Adds++
		}
		ev.MulPlainAcc(acc, x, pm)
		ops.PlainMults++
	}
	if acc == nil {
		return nil, ops, nil
	}
	return ev.FromNTT(acc), ops, nil
}

// ApplyBatch evaluates the convolution over several sessions' packed
// inputs at once, returning per-item output groups and op counts in
// item order: every unique rotation of every item lazily into the NTT
// domain, then one NTT-domain accumulation and one inverse NTT per
// (item, output group). Outputs are byte-identical to the materialized
// MulPlain + Add chain for any batch composition. A nil cache selects
// the operator's own plaintext store.
func (c *Conv2D) ApplyBatch(ecd *bfv.Encoder, items []BatchInput, slots int, cache *PlainCache) ([][]*bfv.Ciphertext, []OpCounts, error) {
	if c.Weights == nil {
		return nil, nil, fmt.Errorf("core: ApplyBatch on a spec-only convolution (no weights)")
	}
	if len(items) == 0 {
		return nil, nil, nil
	}
	if cache == nil {
		cache = c.plains
	}
	// One rotation plan serves every item: the steps depend only on the
	// layer geometry. Slot 0 of the rotation table is the input itself.
	offsets := c.kernelOffsets()
	steps := append([]int{0}, c.RotationSteps()...)
	slotOf := make(map[int]int, len(steps))
	for i, s := range steps {
		slotOf[s] = i
	}
	nTerms := c.Cb * len(offsets)
	termRot := make([]int, nTerms)
	for k := range termRot {
		termRot[k] = slotOf[c.step(k/len(offsets), offsets[k%len(offsets)])]
	}
	rots, err := nttRotations(items, steps, false)
	if err != nil {
		return nil, nil, err
	}
	defer recycleRotations(items, rots)

	// Accumulation fans out over (item, group) pairs; within a pair the
	// terms run in (d, ki) order.
	groups := c.Groups()
	outs := make([][]*bfv.Ciphertext, len(items))
	for i := range outs {
		outs[i] = make([]*bfv.Ciphertext, groups)
	}
	pairOps := make([]OpCounts, len(items)*groups)
	pairErrs := make([]error, len(items)*groups)
	par.For(len(items)*groups, func(p int) {
		item, g := p/groups, p%groups
		ev := items[item].Ev
		outs[item][g], pairOps[p], pairErrs[p] = innerSum(ev, nTerms, func(k int) (*bfv.NTTCiphertext, *bfv.PlaintextMul, error) {
			pm, err := cache.prepared(c, g*nTerms+k, ev, ecd, func() []int64 {
				return c.weightDiag(g, k/len(offsets), k%len(offsets), slots)
			})
			return rots[item][termRot[k]], pm, err
		})
		if pairErrs[p] == nil && outs[item][g] == nil {
			pairErrs[p] = fmt.Errorf("core: group %d has no contributing weights", g)
		}
	})
	opsOut := make([]OpCounts, len(items))
	for p, e := range pairErrs {
		if e != nil && err == nil {
			err = e
		}
		opsOut[p/groups].Add(pairOps[p])
	}
	if err != nil {
		for i, gs := range outs {
			for _, o := range gs {
				if o != nil {
					items[i].Ev.RecycleCt(o)
				}
			}
		}
		return nil, nil, err
	}
	for i := range opsOut {
		opsOut[i].Rotations = len(steps) - 1
	}
	return outs, opsOut, nil
}

// ApplyBatch evaluates y = W·x for several sessions' inputs at once
// (BSGS schedule) at the layer's default hoisting level, returning
// per-item outputs and op counts in item order. Per-item outputs are
// byte-identical for any batch composition; a nil cache selects the
// operator's own plaintext store.
func (f *FC) ApplyBatch(ecd *bfv.Encoder, items []BatchInput, slots int, cache *PlainCache) ([]*bfv.Ciphertext, []OpCounts, error) {
	return f.ApplyBatchAtLevel(ecd, items, slots, cache, f.HoistLevel())
}

// ApplyBatchAtLevel is ApplyBatch at an explicit hoisting level (the
// ladder of FC.ApplyAtLevel). Per-item outputs are byte-identical
// across levels. Levels 2 and 3 are the batch engine; level 1 is the
// Halevi–Shoup oracle run item by item, without the cache.
func (f *FC) ApplyBatchAtLevel(ecd *bfv.Encoder, items []BatchInput, slots int, cache *PlainCache, level int) ([]*bfv.Ciphertext, []OpCounts, error) {
	if f.Weights == nil {
		return nil, nil, fmt.Errorf("core: ApplyBatch on a spec-only FC layer (no weights)")
	}
	if len(items) == 0 {
		return nil, nil, nil
	}
	if cache == nil {
		cache = f.plains
	}
	switch level {
	case 1:
		outs := make([]*bfv.Ciphertext, len(items))
		ops := make([]OpCounts, len(items))
		for i, it := range items {
			var err error
			if outs[i], ops[i], err = f.applyHoisted(it.Ev, ecd, it.Ct, slots); err != nil {
				return nil, nil, err
			}
		}
		return outs, ops, nil
	case 2, 3:
		return f.applyBatchLazy(ecd, items, slots, cache, level)
	default:
		return nil, nil, fmt.Errorf("core: unknown hoisting level %d", level)
	}
}

// applyBatchLazy is the level-2/3 engine. Babies share one
// decomposition of each item's input (level 3 additionally skips their
// materialization: each baby lands directly in the NTT domain the inner
// products consume). Per (item, giant) the inner sum accumulates in the
// NTT domain — one inverse NTT per giant instead of one per term — and
// the giant-step key-switch products accumulate in the extended basis
// QP, per-item accumulators partitioned per worker, so each
// matrix-vector product pays a single full mod-down at the end. The
// per-item term order matches applyHoisted exactly and every
// intermediate is exact modular arithmetic, so per-item outputs are
// byte-identical to the level-1 oracle at any level.
func (f *FC) applyBatchLazy(ecd *bfv.Encoder, items []BatchInput, slots int, cache *PlainCache, level int) ([]*bfv.Ciphertext, []OpCounts, error) {
	opsOut := make([]OpCounts, len(items))
	steps := make([]int, f.B) // baby j is the input rotated by j
	for j := range steps {
		steps[j] = j
	}
	babies, err := nttRotations(items, steps, level < 3)
	if err != nil {
		return nil, nil, err
	}
	defer recycleRotations(items, babies)

	// Per-(item, giant) inner sums. The diagonal is pre-rotated right by
	// i·B so the outer giant rotation restores alignment.
	inners := make([][]*bfv.Ciphertext, len(items))
	for i := range inners {
		inners[i] = make([]*bfv.Ciphertext, f.G)
		opsOut[i].Rotations = f.B - 1
	}
	defer func() {
		for i, ins := range inners {
			for _, in := range ins {
				if in != nil {
					items[i].Ev.RecycleCt(in)
				}
			}
		}
	}()
	nPairs := len(items) * f.G
	pairOps := make([]OpCounts, nPairs)
	pairErrs := make([]error, nPairs)
	par.For(nPairs, func(p int) {
		item, i := p/f.G, p%f.G
		ev := items[item].Ev
		inners[item][i], pairOps[p], pairErrs[p] = innerSum(ev, f.B, func(j int) (*bfv.NTTCiphertext, *bfv.PlaintextMul, error) {
			d := i*f.B + j
			pm, err := cache.prepared(f, d, ev, ecd, func() []int64 {
				diag := f.diag(d, slots)
				if diag == nil {
					return nil
				}
				return f.rotatePlain(diag, -i*f.B)
			})
			return babies[item][j], pm, err
		})
	})

	// Giant fold: per-(item, worker) QP accumulators, merged per item in
	// worker order — bit-identical to a serial accumulator, any split.
	nw := par.MaxWorkers(nPairs)
	qas := make([][]*bfv.QPAccumulator, len(items))
	for i := range qas {
		qas[i] = make([]*bfv.QPAccumulator, nw)
	}
	wErrs := make([]error, nw)
	par.ForWorker(nPairs, func(w, p int) {
		item, i := p/f.G, p%f.G
		if wErrs[w] != nil || pairErrs[p] != nil || inners[item][i] == nil {
			return
		}
		ev := items[item].Ev
		if qas[item][w] == nil {
			qas[item][w] = ev.NewQPAccumulator()
		}
		if i == 0 {
			wErrs[w] = ev.AddLazy(qas[item][w], inners[item][i])
			return
		}
		dci, err := ev.Decompose(inners[item][i])
		if err != nil {
			wErrs[w] = err
			return
		}
		wErrs[w] = ev.AccumulateQP(qas[item][w], dci, i*f.B)
		dci.Release()
	})

	var firstErr error
	for _, e := range pairErrs {
		if e != nil {
			firstErr = e
			break
		}
	}
	if firstErr == nil {
		for _, e := range wErrs {
			if e != nil {
				firstErr = e
				break
			}
		}
	}
	outs := make([]*bfv.Ciphertext, len(items))
	for item := range items {
		var qa *bfv.QPAccumulator
		for w := 0; w < nw; w++ {
			if qas[item][w] == nil {
				continue
			}
			if firstErr != nil {
				qas[item][w].Release()
				continue
			}
			if qa == nil {
				qa = qas[item][w]
			} else {
				qa.Merge(qas[item][w])
			}
		}
		if firstErr != nil {
			continue
		}
		contributed := 0
		for i := 0; i < f.G; i++ {
			opsOut[item].Add(pairOps[item*f.G+i])
			if inners[item][i] == nil {
				continue
			}
			contributed++
			if i > 0 {
				opsOut[item].Rotations++
			}
			if contributed > 1 {
				opsOut[item].Adds++
			}
		}
		if qa == nil {
			firstErr = fmt.Errorf("core: FC weight matrix is all zero")
			continue
		}
		outs[item] = items[item].Ev.FinalizeModDown(qa)
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return outs, opsOut, nil
}
