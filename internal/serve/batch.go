package serve

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"choco/internal/bfv"
	"choco/internal/core"
)

// Cross-request batching executor. The paper's amortization lever —
// decompose/hoist once, apply many (§4.3) — stops at a single request
// on the serial path: two concurrent sessions at the same preset each
// pay their own hoisted decomposition, NTT passes, and weight-plaintext
// pipeline. The executor extends the lever across requests: work items
// from different sessions that hit the same layer inside a short gather
// window evaluate through one core.ApplyBatch call, fusing their
// rotation schedules into a single hoisted dispatch and sharing one
// prepared weight plaintext per diagonal (a PlainCache that also
// persists across batches, so even a lone request on a warm server
// skips the whole encode+NTT weight pipeline).
//
// Gathering uses a leader/follower protocol instead of a dispatcher
// goroutine: the first session to submit in a round becomes the leader,
// waits until the round is depth-full or the window elapses, executes
// the whole round on its own goroutine, and hands each follower its
// result. While a leader computes, new arrivals form the next round —
// batching is self-clocking under load. An idle shard pays no gather
// latency at all: with at most one session active (the solo hook) an
// item executes immediately as a one-item round, so the window (default
// 2ms) is only ever waited out when there are peers worth waiting for.
//
// Correctness: core.ApplyBatch is byte-identical per item for any
// batch composition (serial Apply is a batch of one), so batched and
// unbatched connections may be mixed freely. If a round's ApplyBatch
// fails, the leader replays its items one by one so one session's bad
// input (e.g. a missing Galois key) cannot poison its batch-mates —
// error semantics stay exactly those of the serial path. A panic in the
// kernels is such a failure (panicError): the round runs on its leader's
// goroutine, so left alone it would end the leader's session for another
// session's input and strand the followers waiting on their results.

// panicError is a panic recovered while serving a session, reported as
// that session's error; stack is where it was raised.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("serve: panic: %v", e.value) }

type batchItem struct {
	layer int
	conv  *core.Conv2D
	fc    *core.FC
	ev    *bfv.Evaluator
	ct    *bfv.Ciphertext
	slots int
	done  chan batchResult
}

type batchResult struct {
	outs []*bfv.Ciphertext // conv: one per group; fc: exactly one
	ops  core.OpCounts
	err  error
}

// gatherRound is one forming batch: items accumulate until the round
// is full (depth reached; full is closed) or the leader's window fires.
type gatherRound struct {
	items []*batchItem
	full  chan struct{}
}

type batchExecutor struct {
	ecd    *bfv.Encoder
	cache  *core.PlainCache
	depth  int
	window time.Duration

	// solo, when set, reports that at most this one session is being
	// served right now, so a gather window could never fill: submit
	// runs such items as an immediate one-item round (still through
	// ApplyBatch, so the warm plaintext cache applies) instead of
	// taxing a lone session one window of latency per layer.
	solo func() bool

	mu    sync.Mutex // guards round
	round *gatherRound

	rounds       atomic.Int64 // executed gather rounds
	items        atomic.Int64 // work items that went through the executor
	coalesced    atomic.Int64 // items that shared a round with at least one other
	serialRescue atomic.Int64 // items replayed one by one after a batch failure
}

func newBatchExecutor(ecd *bfv.Encoder, depth int, window time.Duration, cacheBytes int64) *batchExecutor {
	if depth < 1 {
		depth = 1
	}
	if window < 0 {
		window = 0
	}
	return &batchExecutor{
		ecd:    ecd,
		cache:  core.NewPlainCache(cacheBytes),
		depth:  depth,
		window: window,
	}
}

// ExecConv implements nn.KernelExecutor for convolution layers.
func (x *batchExecutor) ExecConv(layer int, conv *core.Conv2D, ev *bfv.Evaluator, ct *bfv.Ciphertext, slots int) ([]*bfv.Ciphertext, core.OpCounts, error) {
	r := x.submit(&batchItem{layer: layer, conv: conv, ev: ev, ct: ct, slots: slots, done: make(chan batchResult, 1)})
	return r.outs, r.ops, r.err
}

// ExecFC implements nn.KernelExecutor for fully-connected layers.
func (x *batchExecutor) ExecFC(layer int, fc *core.FC, ev *bfv.Evaluator, ct *bfv.Ciphertext, slots int) (*bfv.Ciphertext, core.OpCounts, error) {
	r := x.submit(&batchItem{layer: layer, fc: fc, ev: ev, ct: ct, slots: slots, done: make(chan batchResult, 1)})
	if r.err != nil {
		return nil, r.ops, r.err
	}
	return r.outs[0], r.ops, nil
}

// submit joins the forming round (starting one, and leading it, if none
// is forming) and blocks until this item's result is ready.
func (x *batchExecutor) submit(it *batchItem) batchResult {
	x.items.Add(1)
	x.mu.Lock()
	r := x.round
	if r == nil && x.solo != nil && x.solo() {
		// Nobody to coalesce with and no round forming: skip the
		// gather entirely. (If a round is forming, another session's
		// leader is already waiting — joining it is always correct.)
		x.mu.Unlock()
		x.run([]*batchItem{it})
		return <-it.done
	}
	if r == nil {
		r = &gatherRound{full: make(chan struct{})}
		x.round = r
	}
	r.items = append(r.items, it)
	leader := len(r.items) == 1
	if len(r.items) >= x.depth {
		close(r.full)
		x.round = nil
	}
	x.mu.Unlock()

	if leader {
		if x.window > 0 {
			timer := time.NewTimer(x.window)
			select {
			case <-r.full:
			case <-timer.C:
			}
			timer.Stop()
		}
		x.mu.Lock()
		if x.round == r {
			x.round = nil
		}
		x.mu.Unlock()
		x.run(r.items)
	}
	return <-it.done
}

// run executes one gather round: items are grouped by layer (all
// sessions share one compiled model, so the layer index identifies the
// operator) and each group goes through ApplyBatch.
func (x *batchExecutor) run(items []*batchItem) {
	x.rounds.Add(1)
	if len(items) > 1 {
		x.coalesced.Add(int64(len(items)))
	}
	byLayer := map[int][]*batchItem{}
	var order []int
	for _, it := range items {
		if _, ok := byLayer[it.layer]; !ok {
			order = append(order, it.layer)
		}
		byLayer[it.layer] = append(byLayer[it.layer], it)
	}
	for _, layer := range order {
		x.runGroup(byLayer[layer])
	}
}

func (x *batchExecutor) runGroup(group []*batchItem) {
	results := x.apply(group)
	if results[0].err != nil && len(group) > 1 {
		// One item poisoned the batch (bad ciphertext, missing rotation
		// key): replay everyone as a batch of one, over the same warm
		// plaintext cache, so only the guilty session fails.
		x.serialRescue.Add(int64(len(group)))
		for i, it := range group {
			results[i] = x.apply([]*batchItem{it})[0]
		}
	}
	for i, it := range group {
		it.done <- results[i]
	}
}

// apply evaluates same-layer items through one ApplyBatch call. A
// failure — an error or a panic — is reported on every item: the kernel
// does not say whose input caused it.
func (x *batchExecutor) apply(group []*batchItem) (results []batchResult) {
	results = make([]batchResult, len(group))
	defer func() {
		if v := recover(); v != nil {
			err := &panicError{value: v, stack: debug.Stack()}
			for i := range results {
				results[i] = batchResult{err: err}
			}
		}
	}()
	ins := make([]core.BatchInput, len(group))
	for i, it := range group {
		ins[i] = core.BatchInput{Ev: it.ev, Ct: it.ct}
	}
	first := group[0]
	var outs [][]*bfv.Ciphertext
	var ops []core.OpCounts
	var err error
	if first.conv != nil {
		outs, ops, err = first.conv.ApplyBatch(x.ecd, ins, first.slots, x.cache)
	} else {
		var flat []*bfv.Ciphertext
		flat, ops, err = first.fc.ApplyBatch(x.ecd, ins, first.slots, x.cache)
		outs = make([][]*bfv.Ciphertext, len(flat))
		for i, ct := range flat {
			outs[i] = []*bfv.Ciphertext{ct}
		}
	}
	for i := range results {
		if err != nil {
			results[i].err = err
			continue
		}
		results[i] = batchResult{outs: outs[i], ops: ops[i]}
	}
	return results
}

// BatchStats is a point-in-time snapshot of the executor.
type BatchStats struct {
	// Enabled reports whether the server batches at all (depth > 1).
	Enabled bool
	// Depth and Window echo the effective gather configuration.
	Depth  int
	Window time.Duration
	// Rounds is the number of executed gather rounds; Items the work
	// items that flowed through; CoalescedItems those that shared a
	// round with at least one other item (the amortization wins).
	Rounds         int64
	Items          int64
	CoalescedItems int64
	// SerialRescues counts items replayed one by one after a failed batch.
	SerialRescues int64
	// PlainCache reports the shared prepared-weight-plaintext cache:
	// every hit is one skipped encode+lift+NTT pipeline.
	PlainCache core.PlainCacheStats
}

func (x *batchExecutor) stats() BatchStats {
	if x == nil {
		return BatchStats{}
	}
	return BatchStats{
		Enabled:        x.depth > 1,
		Depth:          x.depth,
		Window:         x.window,
		Rounds:         x.rounds.Load(),
		Items:          x.items.Load(),
		CoalescedItems: x.coalesced.Load(),
		SerialRescues:  x.serialRescue.Load(),
		PlainCache:     x.cache.Stats(),
	}
}
