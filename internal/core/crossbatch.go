package core

import (
	"fmt"
	"sync"

	"choco/internal/bfv"
	"choco/internal/ckks"
	"choco/internal/par"
	"choco/internal/ring"
	"choco/internal/rlwe"
)

// The linear-transform engine of both schemes. FC on the slot packing
// (BFV), PageRank and the distance collapse (CKKS) evaluate a diagonal
// linear transform on the baby-step/giant-step schedule (BSGSPlan): baby
// rotations of one input, a fixed plaintext per term, an inner sum per
// giant and one giant fold. All run it NTT-resident over one input
// ciphertext at its level, on rlwe's types (applyBSGS; applyBFV and
// ApplyCKKS wrap it):
//
//   - the input pays one hoisted decomposition, and every baby stays
//     resident in the key ring (q0..ql, p), NTT domain, its divide-by-P
//     still owed (nttRotations) — the coefficient-domain rotation is
//     never materialized;
//   - each inner sum accumulates its terms over that ring as unreduced
//     128-bit sums and pays one reduction, one inverse NTT and one
//     divide-by-P (innerSum): one rounding per inner sum where a mod-down
//     per baby rounds once per term and scales each rounding by its
//     weight (DESIGN.md §13);
//   - the plaintext side (each diagonal encoded, lifted over the key ring
//     and forward-NTT'd) depends only on the transform and the level,
//     never on the session, so one prepared plaintext serves every
//     session and every later request — a PlainCache carries it: the
//     caller's, or the operator's own when the caller passes none.
//
// Terms run in a fixed order, and every intermediate is exact modular
// arithmetic, so the output is byte-identical for any worker count or
// cache state — and to the same schedule run unfused, one reduced
// multiply and add per term (TestFCApplyLevelsByteIdentical).

// BatchInput is one session's input to ApplyBatch, the form the
// benchmark replay prices two items in: its packed input ciphertext and
// the evaluator holding that session's evaluation keys. All items of one
// call must share one parameter preset (one bfv.Context).
type BatchInput struct {
	Ev *bfv.Evaluator
	Ct *bfv.Ciphertext
}

// PlainCache retains prepared plaintexts (the lifted form
// rlwe.Context.MulPlainAcc consumes) keyed by transform identity, level
// and term index, shared across sessions and requests. Entries are immutable once built —
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
	op         any
	level, idx int
}

// plainEntry is one key's plaintext, or the build of it in flight.
type plainEntry struct {
	pt    *ring.Poly
	done  bool          // pt is built and stays; guarded by PlainCache.mu
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

func polyBytes(p *ring.Poly) int64 {
	if p == nil {
		return 0
	}
	var n int64
	for _, row := range p.Coeffs {
		n += int64(len(row)) * 8
	}
	return n
}

// getOrBuild returns the prepared plaintext of term idx of op at level.
// On a miss the first caller builds it outside the lock and everyone
// else who asks for that key meanwhile waits for that one build:
// sessions that hit a cold server together prepare each weight plaintext
// once between them, not once each. A nil value is cached too: it
// records an all-zero diagonal whose term the executor skips, so the
// zero check is not repaid every batch. A build that fails, panics or
// finds the budget spent caches nothing, and its waiters build for
// themselves.
func (pc *PlainCache) getOrBuild(op any, level, idx int, build func() (*ring.Poly, error)) (*ring.Poly, error) {
	if pc == nil {
		return build()
	}
	k := plainKey{op: op, level: level, idx: idx}
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
			return e.pt, nil
		}
		pc.mu.Unlock()
		<-e.ready
	}
}

// fill runs the one build of entry e, which its caller has just put in
// the map under k, and takes it out again unless the value is to stay.
func (pc *PlainCache) fill(k plainKey, e *plainEntry, build func() (*ring.Poly, error)) (pt *ring.Poly, err error) {
	built := false
	defer func() {
		pc.mu.Lock()
		switch size := polyBytes(pt); {
		case !built:
			delete(pc.m, k)
		case pc.bytes+size > pc.budget:
			delete(pc.m, k)
			pc.rejected++
		default:
			e.pt, e.done = pt, true
			pc.bytes += size
		}
		pc.mu.Unlock()
		close(e.ready)
	}()
	pt, err = build()
	built = err == nil
	return pt, err
}

// operand is an input ciphertext as the executor sees it, whichever
// scheme made it: (c0, c1) at a level, and its rotation keys by step.
type operand struct {
	ctx   *rlwe.Context
	level int
	value []*ring.Poly
	key   func(steps int) (*rlwe.GaloisKey, error)
}

// nttRotations returns the input rotated by each of steps, resident in
// the key ring (q0..ql, p) in the NTT domain (a zero step is the input
// itself, lifted), off one hoisted decomposition, the key switches in one
// dispatch; a missing key fails before any work. The caller owns the
// result, polynomials of the key ring's scratch pool.
func nttRotations(x operand, steps []int) ([][]*ring.Poly, error) {
	gks := make([]*rlwe.GaloisKey, len(steps))
	for j, s := range steps {
		var err error
		if s != 0 {
			if gks[j], err = x.key(s); err != nil {
				return nil, err
			}
		}
	}
	var dc rlwe.Decomposed
	x.ctx.Decompose(&dc, x.value, x.level)
	defer dc.Release()
	rots := make([][]*ring.Poly, len(steps))
	par.For(len(steps), func(j int) {
		if gks[j] == nil {
			rots[j] = []*ring.Poly{x.ctx.LiftNTT(x.level, x.value[0]), x.ctx.LiftNTT(x.level, x.value[1])}
			return
		}
		c0, c1 := dc.RotateNTT(gks[j])
		rots[j] = []*ring.Poly{c0, c1}
	})
	return rots, nil
}

// innerSum accumulates one output's n terms in order over the key ring,
// in the NTT domain, and pays a single reduction, inverse NTT and
// divide-by-P for the sum. term(k) yields the rotated input and prepared
// plaintext of term k; a nil plaintext marks an all-zero diagonal,
// skipped without counting. Returns nil (c0, c1) when every term is zero.
func innerSum(x operand, n int, term func(k int) ([]*ring.Poly, *ring.Poly, error)) ([]*ring.Poly, OpCounts, error) {
	var ops OpCounts
	var acc *rlwe.NTTAccumulator
	for k := 0; k < n; k++ {
		rot, pt, err := term(k)
		if err != nil {
			if acc != nil {
				x.ctx.RecycleNTTAccumulator(acc)
			}
			return nil, ops, err
		}
		if pt == nil {
			continue
		}
		if acc == nil {
			acc = x.ctx.NewNTTAccumulator(x.level)
		} else {
			ops.Adds++
		}
		x.ctx.MulPlainAcc(acc, rot, pt)
		ops.PlainMults++
	}
	if acc == nil {
		return nil, ops, nil
	}
	c0, c1 := x.ctx.FromNTT(acc)
	return []*ring.Poly{c0, c1}, ops, nil
}

// BSGSPlan is a linear transform as the executor sees it, over slots of
// type T: Giants × Babies terms summed into one output,
// Σ_gi rot_Giants[gi]( Σ_bi Diag(gi, bi) ⊙ rot_Babies[bi](x) ) — for FC
// (and PageRank) giants i·B over babies 0..B−1, for the distance
// collapse giants jB(d−1) over babies k(d−1).
type BSGSPlan[T int64 | float64] struct {
	// Op identifies the terms in a PlainCache, per level: whatever else
	// changes a term's plaintext (weights, a CKKS scale) needs a new Op.
	Op any
	// Babies rotate the input (a zero step is the input itself); Giants
	// rotate inner sums, and Giants[0] is always the unrotated one.
	Babies, Giants []int
	// Diag returns the slot vector of one term, already rotated by
	// −Giants[gi] so the giant rotation restores its alignment; nil when
	// it is all zero.
	Diag func(gi, bi int) []T
}

// RotationSteps lists the non-zero steps of the plan: the Galois keys a
// session must hold, and nothing else. The first babySteps of them are
// the babies.
func (pl BSGSPlan[T]) RotationSteps() []int {
	var steps []int
	for _, s := range append(append([]int{}, pl.Babies...), pl.Giants...) {
		if s != 0 {
			steps = append(steps, s)
		}
	}
	return steps
}

func (pl BSGSPlan[T]) babySteps() int { return len(pl.RotationSteps()) - (len(pl.Giants) - 1) }

// applyBSGS is the one executor behind FC and ApplyCKKS. Babies share
// one decomposition of the input and stay resident in the key ring,
// where the inner products consume them. One task per giant accumulates
// its inner sum there — one divide-by-P and one inverse NTT per giant
// instead of one per term — and, when the plan has rotated giants, folds
// it at once into its worker's QP accumulator; the per-worker
// accumulators merge in worker order, so the output pays a single full
// mod-down. A plan with no rotated giant (FC with one output, FC's flat
// plan) skips the fold: its inner sum is the output. A term's plaintext
// is prepare of its diagonal, through cache. Terms run in (giant, baby)
// order and every accumulator field is a plain modular sum, so the
// output (c0, c1) is byte-identical for any worker count, split or cache
// state. The error returned is the first in giant order.
func applyBSGS[T int64 | float64](x operand, cache *PlainCache, pl BSGSPlan[T], prepare func([]T) (*ring.Poly, error)) ([]*ring.Poly, OpCounts, error) {
	if rlwe.DebugEnabled {
		x.ctx.DebugCheck("applyBSGS", 0, x.value, x.level)
	}
	babies, err := nttRotations(x, pl.Babies)
	if err != nil {
		return nil, OpCounts{}, err
	}
	defer func() {
		for _, b := range babies {
			x.ctx.KeyRingAtLevel(x.level).PutPoly(b[0])
			x.ctx.KeyRingAtLevel(x.level).PutPoly(b[1])
		}
	}()

	nB, nG := len(pl.Babies), len(pl.Giants)
	var out []*ring.Poly // the inner sum, when nG == 1
	qas := make([]*rlwe.QPAccumulator, par.MaxWorkers(nG))
	innerOps := make([]OpCounts, nG)
	errs := make([]error, nG)
	rQl := x.ctx.RingAtLevel(x.level)
	par.ForWorker(nG, func(w, gi int) {
		in, ops, err := innerSum(x, nB, func(bi int) ([]*ring.Poly, *ring.Poly, error) {
			pt, err := cache.getOrBuild(pl.Op, x.level, gi*nB+bi, func() (*ring.Poly, error) {
				if v := pl.Diag(gi, bi); v != nil {
					return prepare(v)
				}
				return nil, nil
			})
			return babies[bi], pt, err
		})
		innerOps[gi], errs[gi] = ops, err
		if in == nil {
			return
		}
		if nG == 1 {
			out = in
			return
		}
		qa := &qas[w]
		if *qa == nil {
			*qa = x.ctx.NewQPAccumulator(x.level)
		}
		if gi == 0 {
			(*qa).Add(in)
		} else if gk, err := x.key(pl.Giants[gi]); err != nil {
			errs[gi] = err
		} else {
			var dc rlwe.Decomposed
			x.ctx.Decompose(&dc, in, x.level)
			(*qa).Rotate(&dc, gk)
			dc.Release()
		}
		rQl.PutPoly(in[0])
		rQl.PutPoly(in[1])
	})
	for _, e := range errs {
		if e != nil {
			err = e
			break
		}
	}

	var qa *rlwe.QPAccumulator
	for _, q := range qas {
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
		return nil, OpCounts{}, err
	}
	ops := OpCounts{Rotations: pl.babySteps()}
	contributed := 0
	for gi, iops := range innerOps {
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
		return nil, OpCounts{}, fmt.Errorf("core: the transform has no contributing weights")
	case nG > 1:
		c0, c1 := qa.FinalizeModDown()
		out = []*ring.Poly{c0, c1}
	}
	return out, ops, nil
}

// applyBFV runs plan pl over a BFV ciphertext, each weight diagonal
// encoded and lifted the way BFV multiplies plaintexts
// (bfv.Evaluator.PrepareMul).
func applyBFV(ev *bfv.Evaluator, ecd *bfv.Encoder, ct *bfv.Ciphertext, cache *PlainCache, pl BSGSPlan[int64]) (*bfv.Ciphertext, OpCounts, error) {
	if len(ct.Value) != 2 || ct.Drop != 0 {
		return nil, OpCounts{}, fmt.Errorf("core: a linear layer requires a degree-1 full-modulus ciphertext")
	}
	ctx := ev.Context()
	out, ops, err := applyBSGS(operand{ctx.Context, ctx.MaxLevel(), ct.Value, ev.RotationKey}, cache, pl, func(v []int64) (*ring.Poly, error) {
		pt, err := ecd.EncodeInts(v)
		if err != nil {
			return nil, err
		}
		return ev.PrepareMul(pt).NTT, nil
	})
	if err != nil {
		return nil, OpCounts{}, err
	}
	return &bfv.Ciphertext{Value: out}, ops, nil
}

// ApplyCKKS runs plan pl over a CKKS ciphertext, each diagonal encoded at
// scale over the key ring of the input's level (ckks.Encoder.
// EncodeFloatsQP) and so prepared once per (term, level) in cache. The
// output stays at the input's level with scale ct.Scale·scale:
// rescaling is the caller's.
func ApplyCKKS(ev *ckks.Evaluator, ecd *ckks.Encoder, ct *ckks.Ciphertext, cache *PlainCache, pl BSGSPlan[float64], scale float64) (*ckks.Ciphertext, OpCounts, error) {
	if len(ct.Value) != 2 {
		return nil, OpCounts{}, fmt.Errorf("core: a linear transform requires a degree-1 ciphertext")
	}
	out, ops, err := applyBSGS(operand{ev.Context().Context, ct.Level, ct.Value, ev.RotationKey}, cache, pl, func(v []float64) (*ring.Poly, error) {
		return ecd.EncodeFloatsQP(v, ct.Level, scale)
	})
	if err != nil {
		return nil, OpCounts{}, err
	}
	return &ckks.Ciphertext{Value: out, Level: ct.Level, Scale: ct.Scale * scale}, ops, nil
}

// ApplyBatch evaluates y = W·x for several sessions' inputs, one after
// another on one plan, returning per-item outputs and op counts in item
// order; a nil cache selects the operator's own plaintext store, and a
// product-packed layer reads its kernel and no cache. It stays for the
// benchmark replay, which prices two items in one call; the serving tier
// calls Apply, since every layer it runs is a product. ROADMAP.md item 1
// deletes it.
func (f *FC) ApplyBatch(ecd *bfv.Encoder, items []BatchInput, slots int, cache *PlainCache) ([]*bfv.Ciphertext, []OpCounts, error) {
	outs := make([]*bfv.Ciphertext, len(items))
	ops := make([]OpCounts, len(items))
	if f.product {
		for i, it := range items {
			var err error
			if outs[i], ops[i], err = f.Apply(it.Ev, ecd, it.Ct, slots); err != nil {
				return nil, nil, err
			}
		}
		return outs, ops, nil
	}
	if cache == nil {
		cache = f.plains
	}
	pl := f.bsgs(slots)
	for i, it := range items {
		var err error
		if outs[i], ops[i], err = f.apply(it.Ev, ecd, it.Ct, cache, pl); err != nil {
			return nil, nil, err
		}
	}
	return outs, ops, nil
}
