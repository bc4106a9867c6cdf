package nn

import (
	"fmt"

	"choco/internal/core"
	"choco/internal/protocol"
)

// PlainInference runs the quantized network in cleartext integers; the
// client-aided encrypted path must match it exactly (same integer
// arithmetic).
func PlainInference(m *QuantizedModel, image [][]int64) ([]int64, error) {
	net := m.Net
	act := image
	h, w := net.InH, net.InW
	for i, l := range net.Layers {
		switch l.Kind {
		case Conv:
			spec := core.ConvSpec{InH: h, InW: w, InC: len(act), KH: l.KH, KW: l.KW, OutC: l.OutC}
			act = core.PlainConv2D(spec, m.ConvW[i], act)
		case FC:
			flat := flatten(act)
			out := core.PlainFC(m.FCW[i], flat)
			act = [][]int64{out}
			h, w = 1, len(out)
		case Act:
			for c := range act {
				for j := range act[c] {
					v := act[c][j]
					if v < 0 {
						v = 0
					}
					act[c][j] = v >> l.RequantShift
				}
			}
		case Pool:
			act = avgPool2(act, h, w)
			h, w = h/2, w/2
		default:
			return nil, fmt.Errorf("nn: unknown layer kind %v", l.Kind)
		}
	}
	return flatten(act), nil
}

func flatten(chans [][]int64) []int64 {
	var out []int64
	for _, c := range chans {
		out = append(out, c...)
	}
	return out
}

// avgPool2 performs 2×2 sum pooling (the ÷4 folds into the next
// requantization shift, keeping arithmetic exactly integral).
func avgPool2(chans [][]int64, h, w int) [][]int64 {
	h2, w2 := h/2, w/2
	out := make([][]int64, len(chans))
	for c := range chans {
		out[c] = make([]int64, h2*w2)
		for y := 0; y < h2; y++ {
			for x := 0; x < w2; x++ {
				s := chans[c][2*y*w+2*x] + chans[c][2*y*w+2*x+1] +
					chans[c][(2*y+1)*w+2*x] + chans[c][(2*y+1)*w+2*x+1]
				out[c][y*w2+x] = s
			}
		}
	}
	return out
}

// Runner executes client-aided encrypted inference in one process: an
// InferenceClient and a ServerSession holding its evaluation keys, joined
// per request by whatever transports the caller hands Infer.
type Runner struct {
	Model *QuantizedModel

	client *InferenceClient
	sess   *ServerSession
}

// NewRunner compiles the model's linear layers against the network's
// BFV preset and generates exactly the Galois keys they need.
func NewRunner(m *QuantizedModel, seed [32]byte) (*Runner, error) {
	client, err := NewInferenceClient(m.Net, seed)
	if err != nil {
		return nil, err
	}
	srv, err := NewInferenceServer(m)
	if err != nil {
		return nil, err
	}
	return &Runner{Model: m, client: client, sess: srv.NewSession(client.bundle)}, nil
}

// Infer runs one image through the client-aided protocol: the server half
// serves one request on serverEnd while the client half infers over
// clientEnd, so the returned stats reflect real wire traffic and
// stats.Server is what ServeOne counted. A half that fails tells the
// other, which would otherwise wait for a frame that will not come: the
// server with a session-error frame, the client with an empty frame the
// server refuses to decode.
func (r *Runner) Infer(image [][]int64, clientEnd, serverEnd protocol.Transport) ([]int64, core.Stats, error) {
	type served struct {
		ops core.OpCounts
		err error
	}
	done := make(chan served, 1)
	go func() {
		ops, err := r.sess.ServeOne(serverEnd)
		if err != nil {
			_ = serverEnd.Send(protocol.MarshalSessionError(err.Error())) // the client reports it, or has already failed
		}
		done <- served{ops, err}
	}()
	logits, stats, err := r.client.Infer(image, clientEnd)
	if err != nil {
		_ = clientEnd.Send(nil) // the server is done, or fails on this frame
	}
	s := <-done
	stats.Server = s.ops
	if err == nil {
		err = s.err
	}
	return logits, stats, err
}
