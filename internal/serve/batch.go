package serve

import (
	"fmt"
	"time"

	"choco/internal/bfv"
	"choco/internal/core"
	"choco/internal/nn"
)

// executor runs a session's linear layer when it arrives, on that
// session's own goroutine, as the operator's Apply over its own kernel
// (every layer is one plaintext product), and times the call. Nothing
// waits for another session (DESIGN.md §12 has the measurements);
// sessions overlap on a multi-core shard through par's token pool, which
// all their kernels draw from. A kernel error or panic is raised on the
// guilty session's goroutine and ends that session alone (serveOne).
type executor struct {
	ecd *bfv.Encoder
	// layers[i] times the calls of layer i of the network; only conv and
	// FC indices are ever observed.
	layers []histogram
}

func newExecutor(backend *nn.InferenceServer) *executor {
	return &executor{
		ecd:    backend.Encoder(),
		layers: make([]histogram, len(backend.Model.Net.Layers)),
	}
}

func (x *executor) observe(layer int, start time.Time) {
	x.layers[layer].observe(time.Since(start))
}

// ExecConv implements nn.KernelExecutor for convolution layers.
func (x *executor) ExecConv(layer int, conv *core.Conv2D, ev *bfv.Evaluator, ct *bfv.Ciphertext, slots int) ([]*bfv.Ciphertext, core.OpCounts, error) {
	defer x.observe(layer, time.Now())
	return conv.Apply(ev, x.ecd, ct, slots)
}

// ExecFC implements nn.KernelExecutor for fully-connected layers.
func (x *executor) ExecFC(layer int, fc *core.FC, ev *bfv.Evaluator, ct *bfv.Ciphertext, slots int) (*bfv.Ciphertext, core.OpCounts, error) {
	defer x.observe(layer, time.Now())
	return fc.Apply(ev, x.ecd, ct, slots)
}

// BatchStats is a point-in-time snapshot of the executor.
type BatchStats struct {
	// Rounds and Items both count layer calls: every call is its own
	// kernel call, nothing gathers.
	Rounds int64
	Items  int64
	// CoalescedItems and SerialRescues always read 0: nothing gathers
	// any more. PlainCache always reads zero too: no served layer
	// prepares a weight plaintext, each multiplies by its own kernel. All
	// three stay until the benchmark stops reading them (ROADMAP), then
	// go.
	CoalescedItems int64
	SerialRescues  int64
	PlainCache     core.PlainCacheStats
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
	return BatchStats{Rounds: n, Items: n}
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
