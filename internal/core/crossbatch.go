package core

import (
	"fmt"
	"sync"

	"choco/internal/bfv"
	"choco/internal/par"
)

// The linear-layer engine. Conv2D and FC both evaluate a diagonal
// linear transform on the baby-step/giant-step schedule (bsgsPlan): baby
// rotations of one input, a fixed weight plaintext per term, an inner sum
// per (output, giant) and a giant fold per output. Both run it
// NTT-resident over a batch of sessions' inputs (applyBSGS), and serial
// Apply is a batch of one:
//
//   - each item pays one hoisted decomposition of its input, and every
//     baby stays resident in the key ring QP, NTT domain, its divide-by-P
//     still owed (nttRotations) — the coefficient-domain rotation is never
//     materialized;
//   - each inner sum accumulates its terms over QP as unreduced 128-bit
//     sums and pays one reduction, one inverse NTT and one divide-by-P
//     (innerSum): one rounding per inner sum where a mod-down per baby
//     rounds once per term and scales each rounding by its weight
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
// any batch composition, worker count or cache state — and to the same
// schedule run unfused, one reduced multiply and add per term
// (TestConvResidentMatchesMaterialized).

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
	m     map[plainKey]*plainEntry

	hits, misses, rejected int64
}

type plainKey struct {
	op  any
	idx int
}

// plainEntry is one key's plaintext, or the build of it in flight.
type plainEntry struct {
	pm    *bfv.PlaintextMul
	done  bool          // pm is built and stays; guarded by PlainCache.mu
	ready chan struct{} // closed when the build is over, whichever way
}

// DefaultPlainCacheBytes bounds a PlainCache built with budget <= 0.
const DefaultPlainCacheBytes = 256 << 20

// NewPlainCache builds a prepared-plaintext cache with the given byte
// budget (<= 0 selects DefaultPlainCacheBytes).
func NewPlainCache(budgetBytes int64) *PlainCache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultPlainCacheBytes
	}
	return &PlainCache{budget: budgetBytes, m: map[plainKey]*plainEntry{}}
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
	if pm == nil {
		return 0
	}
	var n int64
	for _, row := range pm.NTT.Coeffs {
		n += int64(len(row)) * 8
	}
	return n
}

// getOrBuild returns the prepared plaintext for (op, idx). On a miss the
// first caller builds it outside the lock and everyone else who asks for
// that key meanwhile waits for that one build: sessions that hit a cold
// server together prepare each weight plaintext once between them, not
// once each. A nil value is cached too: it records an all-zero diagonal
// whose term Apply skips, so the zero check is not repaid every batch. A
// build that fails, panics or finds the budget spent caches nothing, and
// its waiters build for themselves.
func (pc *PlainCache) getOrBuild(op any, idx int, build func() (*bfv.PlaintextMul, error)) (*bfv.PlaintextMul, error) {
	if pc == nil {
		return build()
	}
	k := plainKey{op: op, idx: idx}
	for {
		pc.mu.Lock()
		e := pc.m[k]
		if e == nil {
			e = &plainEntry{ready: make(chan struct{})}
			pc.m[k] = e
			pc.misses++
			pc.mu.Unlock()
			return pc.fill(k, e, build)
		}
		if e.done {
			pc.hits++
			pc.mu.Unlock()
			return e.pm, nil
		}
		pc.mu.Unlock()
		<-e.ready
	}
}

// fill runs the one build of entry e, which its caller has just put in
// the map under k, and takes it out again unless the value is to stay.
func (pc *PlainCache) fill(k plainKey, e *plainEntry, build func() (*bfv.PlaintextMul, error)) (pm *bfv.PlaintextMul, err error) {
	built := false
	defer func() {
		pc.mu.Lock()
		switch size := pmBytes(pm); {
		case !built:
			delete(pc.m, k)
		case pc.bytes+size > pc.budget:
			delete(pc.m, k)
			pc.rejected++
		default:
			e.pm, e.done = pm, true
			pc.bytes += size
		}
		pc.mu.Unlock()
		close(e.ready)
	}()
	pm, err = build()
	built = err == nil
	return pm, err
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
// resident in QP in the NTT domain (a zero step is the input itself,
// lifted). Each item pays one hoisted decomposition; every (item, step)
// key switch of the batch then runs in one flat dispatch. On error
// nothing is left outstanding; on success the caller owns the result
// (recycleRotations).
func nttRotations(items []BatchInput, steps []int) (rots [][]*bfv.NTTCiphertext, err error) {
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
		rots[item][j], errs[k] = items[item].Ev.RotateRowsLazyNTT(dcs[item], steps[j])
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

// innerSum accumulates one output's n terms in order over QP, in the NTT
// domain, and pays a single reduction, inverse NTT and divide-by-P for
// the sum. term(k) yields the rotated input and prepared weight plaintext
// of term k; a nil plaintext marks an all-zero diagonal, skipped without
// counting. Returns a nil ciphertext when every term is zero.
func innerSum(ev *bfv.Evaluator, n int, term func(k int) (*bfv.NTTCiphertext, *bfv.PlaintextMul, error)) (*bfv.Ciphertext, OpCounts, error) {
	var ops OpCounts
	var acc *bfv.NTTAccumulator
	for k := 0; k < n; k++ {
		x, pm, err := term(k)
		if err != nil {
			if acc != nil {
				ev.RecycleNTTAccumulator(acc)
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

// bsgsPlan is a linear layer as the executor sees it: outputs × giants ×
// babies. Output o is Σ_gi rot_giants[gi]( Σ_bi diag(o, gi, bi) ⊙
// rot_babies[bi](x) ) — for FC one output with giants i·B over babies
// 0..B−1, for Conv2D one output per group with the channel-block shifts
// d·Stride as giants over the kernel offsets as babies.
type bsgsPlan struct {
	op      any // the layer: identity of its terms in a PlainCache
	outputs int
	// babies rotate the input (a zero step is the input itself); giants
	// rotate inner sums, and giants[0] is always the unrotated one.
	babies, giants []int
	// diag returns the weight vector of one term, already rotated by
	// −giants[gi] so the giant rotation restores its alignment; nil
	// when it is all zero.
	diag func(o, gi, bi int) []int64
}

// rotationSteps lists the non-zero steps of the plan: the Galois keys a
// session must hold, and nothing else. The first babySteps of them are
// the babies.
func (pl bsgsPlan) rotationSteps() []int {
	var steps []int
	for _, s := range append(append([]int{}, pl.babies...), pl.giants...) {
		if s != 0 {
			steps = append(steps, s)
		}
	}
	return steps
}

func (pl bsgsPlan) babySteps() int { return len(pl.rotationSteps()) - (len(pl.giants) - 1) }

// applyBSGS is the one executor behind Conv2D.ApplyBatch and
// FC.ApplyBatch. Babies share one decomposition of each item's input and
// stay resident in QP, where the inner products consume them. Per (item,
// output, giant) the inner sum accumulates over QP — one divide-by-P and
// one inverse NTT per giant instead of one per term — and the giant-step
// key-switch products of each output accumulate in QP too, per-worker
// accumulators merged in worker order, so each output pays a single full
// mod-down. A plan with no rotated giant (Conv2D with one channel block,
// FC with one output, FC's flat plan) skips the fold: its inner sum is
// the output. Terms run in (giant, baby) order and every intermediate is
// exact modular arithmetic, so per-item outputs are byte-identical for
// any batch composition, worker count or cache state.
func applyBSGS(ecd *bfv.Encoder, items []BatchInput, cache *PlainCache, pl bsgsPlan) ([][]*bfv.Ciphertext, []OpCounts, error) {
	if len(items) == 0 {
		return nil, nil, nil
	}
	babies, err := nttRotations(items, pl.babies)
	if err != nil {
		return nil, nil, err
	}
	defer recycleRotations(items, babies)

	// Inner sums, flat in (item, output, giant) order.
	nB, nG := len(pl.babies), len(pl.giants)
	perItem := pl.outputs * nG
	n := len(items) * perItem
	inners := make([]*bfv.Ciphertext, n)
	defer func() {
		for p, in := range inners {
			if in != nil {
				items[p/perItem].Ev.RecycleCt(in)
			}
		}
	}()
	innerOps := make([]OpCounts, n)
	errs := make([]error, n)
	par.For(n, func(p int) {
		item, og := p/perItem, p%perItem
		ev := items[item].Ev
		inners[p], innerOps[p], errs[p] = innerSum(ev, nB, func(bi int) (*bfv.NTTCiphertext, *bfv.PlaintextMul, error) {
			pm, err := cache.prepared(pl.op, og*nB+bi, ev, ecd, func() []int64 { return pl.diag(og/nG, og%nG, bi) })
			return babies[item][bi], pm, err
		})
	})

	// Giant fold: per-(item, output, worker) QP accumulators, merged in
	// worker order — bit-identical to a serial accumulator, any split.
	nw := par.MaxWorkers(n)
	qas := make([]*bfv.QPAccumulator, len(items)*pl.outputs*nw)
	if nG > 1 {
		wErrs := make([]error, nw)
		par.ForWorker(n, func(w, p int) {
			if wErrs[w] != nil || errs[p] != nil || inners[p] == nil {
				return
			}
			ev := items[p/perItem].Ev
			qa := &qas[p/nG*nw+w]
			if *qa == nil {
				*qa = ev.NewQPAccumulator()
			}
			if p%nG == 0 {
				wErrs[w] = ev.AddLazy(*qa, inners[p])
				return
			}
			dc, err := ev.Decompose(inners[p])
			if err != nil {
				wErrs[w] = err
				return
			}
			wErrs[w] = ev.AccumulateQP(*qa, dc, pl.giants[p%nG])
			dc.Release()
		})
		errs = append(errs, wErrs...)
	}
	for _, e := range errs {
		if e != nil {
			err = e
			break
		}
	}

	outs := make([][]*bfv.Ciphertext, len(items))
	opsOut := make([]OpCounts, len(items))
	for io := 0; io < len(items)*pl.outputs; io++ {
		item, o := io/pl.outputs, io%pl.outputs
		var qa *bfv.QPAccumulator
		for _, q := range qas[io*nw : (io+1)*nw] {
			switch {
			case q == nil:
			case err != nil:
				q.Release()
			case qa == nil:
				qa = q
			default:
				qa.Merge(q)
			}
		}
		if err != nil {
			continue
		}
		if o == 0 {
			outs[item] = make([]*bfv.Ciphertext, pl.outputs)
			opsOut[item].Rotations = pl.babySteps()
		}
		contributed := 0
		for p := io * nG; p < (io+1)*nG; p++ {
			opsOut[item].Add(innerOps[p])
			if inners[p] == nil {
				continue
			}
			contributed++
			if p > io*nG {
				opsOut[item].Rotations++
			}
			if contributed > 1 {
				opsOut[item].Adds++
			}
		}
		switch {
		case contributed == 0:
			err = fmt.Errorf("core: output %d has no contributing weights", o)
		case nG == 1:
			outs[item][o], inners[io] = inners[io], nil
		default:
			outs[item][o] = items[item].Ev.FinalizeModDown(qa)
		}
	}
	if err != nil {
		for i, os := range outs {
			for _, o := range os {
				if o != nil {
					items[i].Ev.RecycleCt(o)
				}
			}
		}
		return nil, nil, err
	}
	return outs, opsOut, nil
}

// ApplyBatch evaluates the convolution over several sessions' packed
// inputs at once, returning per-item output groups and op counts in
// item order. Per-item outputs are byte-identical for any batch
// composition; a nil cache selects the operator's own plaintext store.
func (c *Conv2D) ApplyBatch(ecd *bfv.Encoder, items []BatchInput, slots int, cache *PlainCache) ([][]*bfv.Ciphertext, []OpCounts, error) {
	if c.Weights == nil {
		return nil, nil, fmt.Errorf("core: ApplyBatch on a spec-only convolution (no weights)")
	}
	if cache == nil {
		cache = c.plains
	}
	return applyBSGS(ecd, items, cache, c.bsgs(slots))
}

// ApplyBatch evaluates y = W·x for several sessions' inputs at once,
// returning per-item outputs and op counts in item order. Per-item
// outputs are byte-identical for any batch composition; a nil cache
// selects the operator's own plaintext store.
func (f *FC) ApplyBatch(ecd *bfv.Encoder, items []BatchInput, slots int, cache *PlainCache) ([]*bfv.Ciphertext, []OpCounts, error) {
	if f.Weights == nil {
		return nil, nil, fmt.Errorf("core: ApplyBatch on a spec-only FC layer (no weights)")
	}
	if cache == nil {
		cache = f.plains
	}
	groups, ops, err := applyBSGS(ecd, items, cache, f.bsgs(slots))
	if err != nil {
		return nil, nil, err
	}
	outs := make([]*bfv.Ciphertext, len(groups))
	for i, g := range groups {
		outs[i] = g[0]
	}
	return outs, ops, nil
}
