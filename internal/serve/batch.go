package serve

import (
	"fmt"
	"time"

	"choco/internal/bfv"
	"choco/internal/core"
	"choco/internal/nn"
)

// executor runs a session's linear layer when it arrives, on that
// session's own goroutine, as a one-item ApplyBatch over the server's one
// byte-budgeted weight-plaintext cache: the encode + PrepareMul pipeline
// of a diagonal depends on the model and the preset only, so one prepared
// plaintext serves every session and every later request. Nothing waits
// for another session (DESIGN.md §12 has the measurements); sessions
// overlap on a multi-core shard through par's token pool, which all
// their kernels draw from. A kernel error or panic is raised on the
// guilty session's goroutine and ends that session alone (serveOne).
type executor struct {
	ecd   *bfv.Encoder
	cache *core.PlainCache
	// layers[i] times the calls of layer i of the network; only conv and
	// FC indices are ever observed.
	layers []histogram
}

func newExecutor(backend *nn.InferenceServer, cacheBytes int64) *executor {
	return &executor{
		ecd:    backend.Encoder(),
		cache:  core.NewPlainCache(cacheBytes),
		layers: make([]histogram, len(backend.Model.Net.Layers)),
	}
}

func (x *executor) observe(layer int, start time.Time) {
	x.layers[layer].observe(time.Since(start))
}

// ExecConv implements nn.KernelExecutor for convolution layers.
func (x *executor) ExecConv(layer int, conv *core.Conv2D, ev *bfv.Evaluator, ct *bfv.Ciphertext, slots int) ([]*bfv.Ciphertext, core.OpCounts, error) {
	defer x.observe(layer, time.Now())
	outs, ops, err := conv.ApplyBatch(x.ecd, []core.BatchInput{{Ev: ev, Ct: ct}}, slots, x.cache)
	if err != nil {
		return nil, core.OpCounts{}, err
	}
	return outs[0], ops[0], nil
}

// ExecFC implements nn.KernelExecutor for fully-connected layers.
func (x *executor) ExecFC(layer int, fc *core.FC, ev *bfv.Evaluator, ct *bfv.Ciphertext, slots int) (*bfv.Ciphertext, core.OpCounts, error) {
	defer x.observe(layer, time.Now())
	outs, ops, err := fc.ApplyBatch(x.ecd, []core.BatchInput{{Ev: ev, Ct: ct}}, slots, x.cache)
	if err != nil {
		return nil, core.OpCounts{}, err
	}
	return outs[0], ops[0], nil
}

// BatchStats is a point-in-time snapshot of the executor.
type BatchStats struct {
	// Rounds and Items both count layer calls: every call is its own
	// one-item ApplyBatch.
	Rounds int64
	Items  int64
	// CoalescedItems and SerialRescues always read 0: nothing gathers
	// any more. They stay until the benchmark stops reading them
	// (ROADMAP), then go.
	CoalescedItems int64
	SerialRescues  int64
	// PlainCache reports the shared prepared-weight-plaintext cache:
	// every hit is one skipped encode+lift+NTT pipeline.
	PlainCache core.PlainCacheStats
}

// LayerStats is the compute time of one linear layer of the model as the
// executor saw it: the kernel call alone, no frame decode, reply switch
// or wire.
type LayerStats struct {
	Layer   int    // index in the network's layer list
	Kind    string // "conv" or "fc"
	Compute LatencySummary
}

func (x *executor) stats() BatchStats {
	var n int64
	for i := range x.layers {
		n += x.layers[i].count.Load()
	}
	return BatchStats{Rounds: n, Items: n, PlainCache: x.cache.Stats()}
}

func (x *executor) layerStats(net *nn.Network) []LayerStats {
	var out []LayerStats
	for i, l := range net.Layers {
		if l.Kind == nn.Conv || l.Kind == nn.FC {
			out = append(out, LayerStats{Layer: i, Kind: l.Kind.String(), Compute: x.layers[i].summary()})
		}
	}
	return out
}

// panicError is a panic recovered while serving a session, reported as
// that session's error; stack is where it was raised.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("serve: panic: %v", e.value) }
