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
// NTT-resident over one input ciphertext (applyBSGS):
//
//   - the input pays one hoisted decomposition, and every baby stays
//     resident in the key ring QP, NTT domain, its divide-by-P still owed
//     (nttRotations) — the coefficient-domain rotation is never
//     materialized;
//   - each inner sum accumulates its terms over QP as unreduced 128-bit
//     sums and pays one reduction, one inverse NTT and one divide-by-P
//     (innerSum): one rounding per inner sum where a mod-down per baby
//     rounds once per term and scales each rounding by its weight
//     (DESIGN.md §13);
//   - the weight-side plaintext pipeline (EncodeInts of each diagonal +
//     PrepareMul's lift and forward NTT) depends only on the layer's
//     weights and the parameter preset, never on the session, so one
//     prepared plaintext serves every session and every later request — a
//     PlainCache carries it: the serving tier's shared one, or the
//     operator's own when the caller passes none.
//
// Terms run in a fixed order per output, and every intermediate is
// exact modular arithmetic, so outputs are byte-identical for any worker
// count or cache state — and to the same schedule run unfused, one
// reduced multiply and add per term (TestConvResidentMatchesMaterialized).

// BatchInput is one session's input to ApplyBatch, the form the
// benchmark replay prices two items in: its packed input ciphertext and
// the evaluator holding that session's evaluation keys. All items of one
// call must share one parameter preset (one bfv.Context).
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

// nttRotations returns the input rotated by each of steps, resident in
// QP in the NTT domain (a zero step is the input itself, lifted), off
// one hoisted decomposition, the key switches in one dispatch. On error
// nothing is left outstanding; on success the caller owns the result
// (recycleRotations).
func nttRotations(ev *bfv.Evaluator, ct *bfv.Ciphertext, steps []int) ([]*bfv.NTTCiphertext, error) {
	// The decomposition also rejects a malformed input before ToNTT
	// (which panics on one) sees it.
	dc, err := ev.Decompose(ct)
	if err != nil {
		return nil, err
	}
	defer dc.Release()
	rots := make([]*bfv.NTTCiphertext, len(steps))
	errs := make([]error, len(steps))
	par.For(len(steps), func(j int) {
		rots[j], errs[j] = ev.RotateRowsLazyNTT(dc, steps[j])
	})
	for _, e := range errs {
		if e != nil {
			recycleRotations(rots)
			return nil, e
		}
	}
	return rots, nil
}

// recycleRotations returns every rotation of nttRotations' result to
// the scratch pool.
func recycleRotations(rots []*bfv.NTTCiphertext) {
	for _, r := range rots {
		if r != nil {
			r.Recycle()
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

// applyBSGS is the one executor behind Conv2D and FC. Babies share one
// decomposition of the input and stay resident in QP, where the inner
// products consume them. One task per (output, giant) accumulates its
// inner sum over QP — one divide-by-P and one inverse NTT per giant
// instead of one per term — and, when the plan has rotated giants, folds
// it at once into its worker's QP accumulator for that output; the
// per-worker accumulators merge in worker order, so each output pays a
// single full mod-down. A plan with no rotated giant (Conv2D with one
// channel block, FC with one output, FC's flat plan) skips the fold: its
// inner sum is the output. Terms run in (giant, baby) order and every
// accumulator field is a plain modular sum, so the outputs are
// byte-identical for any worker count, split or cache state. The error
// returned is the first in (output, giant) order.
func applyBSGS(ev *bfv.Evaluator, ecd *bfv.Encoder, ct *bfv.Ciphertext, cache *PlainCache, pl bsgsPlan) ([]*bfv.Ciphertext, OpCounts, error) {
	babies, err := nttRotations(ev, ct, pl.babies)
	if err != nil {
		return nil, OpCounts{}, err
	}
	defer recycleRotations(babies)

	nB, nG := len(pl.babies), len(pl.giants)
	n := pl.outputs * nG
	nw := par.MaxWorkers(n)
	outs := make([]*bfv.Ciphertext, pl.outputs) // the inner sums, when nG == 1
	qas := make([]*bfv.QPAccumulator, pl.outputs*nw)
	innerOps := make([]OpCounts, n)
	errs := make([]error, n)
	par.ForWorker(n, func(w, p int) {
		o, gi := p/nG, p%nG
		in, ops, err := innerSum(ev, nB, func(bi int) (*bfv.NTTCiphertext, *bfv.PlaintextMul, error) {
			pm, err := cache.prepared(pl.op, p*nB+bi, ev, ecd, func() []int64 { return pl.diag(o, gi, bi) })
			return babies[bi], pm, err
		})
		innerOps[p], errs[p] = ops, err
		if in == nil {
			return
		}
		if nG == 1 {
			outs[o] = in
			return
		}
		qa := &qas[o*nw+w]
		if *qa == nil {
			*qa = ev.NewQPAccumulator()
		}
		if gi == 0 {
			errs[p] = ev.AddLazy(*qa, in)
		} else if dc, err := ev.Decompose(in); err != nil {
			errs[p] = err
		} else {
			errs[p] = ev.AccumulateQP(*qa, dc, pl.giants[gi])
			dc.Release()
		}
		ev.RecycleCt(in)
	})
	for _, e := range errs {
		if e != nil {
			err = e
			break
		}
	}

	ops := OpCounts{Rotations: pl.babySteps()}
	for o := range outs {
		var qa *bfv.QPAccumulator
		for _, q := range qas[o*nw : (o+1)*nw] {
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
		contributed := 0
		for gi, iops := range innerOps[o*nG : (o+1)*nG] {
			ops.Add(iops)
			if iops.PlainMults == 0 {
				continue // an all-zero inner sum
			}
			contributed++
			if gi > 0 {
				ops.Rotations++
			}
			if contributed > 1 {
				ops.Adds++
			}
		}
		switch {
		case contributed == 0:
			err = fmt.Errorf("core: output %d has no contributing weights", o)
		case nG > 1:
			outs[o] = ev.FinalizeModDown(qa)
		}
	}
	if err != nil {
		for _, out := range outs {
			if out != nil {
				ev.RecycleCt(out)
			}
		}
		return nil, OpCounts{}, err
	}
	return outs, ops, nil
}

// ApplyBatch evaluates the convolution over several sessions' packed
// inputs, one after another on one plan, returning per-item output
// groups and op counts in item order; a nil cache selects the operator's
// own plaintext store. It stays for two callers: the benchmark replay
// prices two items in one call, and the serving tier passes its shared
// PlainCache through it.
func (c *Conv2D) ApplyBatch(ecd *bfv.Encoder, items []BatchInput, slots int, cache *PlainCache) ([][]*bfv.Ciphertext, []OpCounts, error) {
	if c.Weights == nil {
		return nil, nil, fmt.Errorf("core: ApplyBatch on a spec-only convolution (no weights)")
	}
	if cache == nil {
		cache = c.plains
	}
	pl := c.bsgs(slots)
	outs := make([][]*bfv.Ciphertext, len(items))
	ops := make([]OpCounts, len(items))
	for i, it := range items {
		var err error
		if outs[i], ops[i], err = applyBSGS(it.Ev, ecd, it.Ct, cache, pl); err != nil {
			return nil, nil, err
		}
	}
	return outs, ops, nil
}

// ApplyBatch evaluates y = W·x for several sessions' inputs, one after
// another on one plan, returning per-item outputs and op counts in item
// order; a nil cache selects the operator's own plaintext store. It stays
// for two callers: the benchmark replay prices two items in one call, and
// the serving tier passes its shared PlainCache through it.
func (f *FC) ApplyBatch(ecd *bfv.Encoder, items []BatchInput, slots int, cache *PlainCache) ([]*bfv.Ciphertext, []OpCounts, error) {
	if cache == nil {
		cache = f.plains
	}
	pl := f.bsgs(slots)
	outs := make([]*bfv.Ciphertext, len(items))
	ops := make([]OpCounts, len(items))
	for i, it := range items {
		var err error
		if outs[i], ops[i], err = f.apply(it.Ev, ecd, it.Ct, cache, pl); err != nil {
			return nil, nil, err
		}
	}
	return outs, ops, nil
}
