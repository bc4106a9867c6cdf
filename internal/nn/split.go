package nn

import (
	"errors"
	"fmt"
	"time"

	"choco/internal/bfv"
	"choco/internal/core"
	"choco/internal/protocol"
	"choco/internal/ring"
)

// The split client/server API deploys client-aided inference across a
// real transport: the client holds the secret key and the network
// *architecture* (it needs layer shapes to pack, unpack, and run the
// plaintext non-linear layers); the server holds the model weights —
// the centralized-model advantage of §1 — plus the client's public
// evaluation keys received once at session setup.

// InferenceClient is the trusted, resource-constrained side.
type InferenceClient struct {
	Net *Network

	ctx    *bfv.Context
	sk     *bfv.SecretKey
	symEnc *bfv.SymmetricEncryptor
	dec    *bfv.Decryptor
	// keyFrame is the evaluation-key bundle, marshalled once: the client
	// keeps the bytes it sends, not the unpacked keys.
	keyFrame []byte

	convs map[int]*core.Conv2D
	fcs   map[int]*core.FC

	// replyDrop is the level every reply must arrive at
	// (bfv.Parameters.ReplyDrop); Infer refuses any other.
	replyDrop int
}

// rotationStepsFor compiles the network's linear layers against the
// ring's row size and derives every rotation they need — identical on
// both sides because it depends only on shapes. With a model the
// operators carry its weights (the evaluating side); with nil they are
// spec-only (the client's packing and key-generation half).
func rotationStepsFor(net *Network, m *QuantizedModel, rowSize int) ([]int, map[int]*core.Conv2D, map[int]*core.FC, error) {
	var steps []int
	convs := map[int]*core.Conv2D{}
	fcs := map[int]*core.FC{}
	h, w := net.InH, net.InW
	for i, l := range net.Layers {
		var err error
		switch l.Kind {
		case Conv:
			_, _, c := net.shapeAt(i)
			spec := core.ConvSpec{InH: h, InW: w, InC: c, KH: l.KH, KW: l.KW, OutC: l.OutC}
			if m != nil {
				convs[i], err = core.NewConv2D(spec, m.ConvW[i], rowSize)
			} else {
				convs[i], err = core.NewConv2DSpecOnly(spec, rowSize)
			}
			if err == nil {
				steps = append(steps, convs[i].RotationSteps()...)
			}
		case FC:
			hh, ww, cc := net.shapeAt(i)
			if m != nil {
				fcs[i], err = core.NewFC(hh*ww*cc, l.FCOut, m.FCW[i], rowSize)
			} else {
				fcs[i], err = core.NewFCSpecOnly(hh*ww*cc, l.FCOut, rowSize)
			}
			if err == nil {
				steps = append(steps, fcs[i].RotationSteps()...)
			}
			h, w = 1, l.FCOut
		case Pool:
			h, w = h/2, w/2
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("nn: layer %d: %w", i, err)
		}
	}
	return steps, convs, fcs, nil
}

// EvaluationKeyFootprint reports the one-time client→server setup
// cost for a network: the number of distinct Galois keys its layers
// need and the serialized bundle size (public key + seeded Galois keys;
// no relinearization key, since every layer is linear). The paper, like
// its baselines' "offline" phases, amortizes this over the deployment
// lifetime; the number matters for real clients, so we account for it.
func EvaluationKeyFootprint(net *Network) (galoisKeys int, bundleBytes int64, err error) {
	params := net.Params
	rowSize := params.N() / 2
	// The step set is the operators' own (RotationSteps). Unlike the
	// executable path, channel and vector widths clamp to one
	// ciphertext's capacity — wide layers split across ciphertexts but
	// reuse the same steps.
	set := map[int]bool{}
	h, w := net.InH, net.InW
	for i, l := range net.Layers {
		var steps []int
		switch l.Kind {
		case Conv:
			_, _, c := net.shapeAt(i)
			spec := core.ConvSpec{InH: h, InW: w, InC: 1, KH: l.KH, KW: l.KW, OutC: l.OutC}
			conv, err := core.NewConv2DSpecOnly(spec, rowSize)
			if err == nil && c > 1 {
				spec.InC = min(c, conv.Cb)
				conv, err = core.NewConv2DSpecOnly(spec, rowSize)
			}
			if err != nil {
				return 0, 0, fmt.Errorf("nn: layer %d: %w", i, err)
			}
			steps = conv.RotationSteps()
		case FC:
			hh, ww, cc := net.shapeAt(i)
			fc, err := core.NewFCSpecOnly(min(hh*ww*cc, rowSize), min(l.FCOut, rowSize), rowSize)
			if err != nil {
				return 0, 0, fmt.Errorf("nn: layer %d: %w", i, err)
			}
			steps = fc.RotationSteps()
			h, w = 1, l.FCOut
		case Pool:
			h, w = h/2, w/2
		}
		for _, s := range steps {
			set[s] = true
		}
	}
	// Distinct Galois elements plus the row-swap key.
	galoisKeys = len(set) + 1

	bundleBytes = int64(protocol.KeyBundleBytes(params.N(), params.QBits, params.PBits, false, galoisKeys))
	return galoisKeys, bundleBytes, nil
}

// RequestCost is what one inference costs on the executable path, read
// from the compiled operators' own plans — no keys, no ciphertexts: what
// the client moves, and the server's work when no weight is zero.
type RequestCost struct {
	UpCiphertexts, DownCiphertexts int
	// UpFrameBytes and ReplyFrameBytes are what one frame of each
	// direction costs on the wire (protocol.FrameBytes): a seeded upload
	// at every data prime, a two-component reply at the primes left after
	// the parameter set's ReplyDrop. WireBytes is the request's total.
	UpFrameBytes, ReplyFrameBytes int
	WireBytes                     int64
	Server                        core.OpCounts
}

// ExecutableRequestCost plans one inference of a network the split
// client/server can run. Unlike CommPlan — the analytic model, which
// assumes densely condensed, full-size downloads — it counts the reply
// ciphertexts the operators' packing produces, at the level they are sent.
// On LeNet-Sm the two reply counts agree (3): conv blocks carry no pad
// slots, so conv1's four channels fill one group.
func ExecutableRequestCost(net *Network) (RequestCost, error) {
	var rc RequestCost
	_, convs, fcs, err := rotationStepsFor(net, nil, net.Params.N()/2)
	if err != nil {
		return rc, err
	}
	add := func(plan core.RotationPlan, outputs int) {
		rc.UpCiphertexts++
		rc.DownCiphertexts += outputs
		rc.Server.Add(core.OpCounts{Rotations: plan.BabySteps + plan.GiantSteps,
			PlainMults: plan.PlainMults, Adds: plan.PlainMults - outputs})
	}
	for _, conv := range convs {
		add(conv.Plan(), conv.Groups())
	}
	for _, fc := range fcs {
		add(fc.Plan(fc.HoistLevel()), 1)
	}
	n, qBits := net.Params.N(), net.Params.QBits
	rc.UpFrameBytes = protocol.FrameBytes(ring.PackedBytes(n, qBits...), 1, true)
	rc.ReplyFrameBytes = protocol.FrameBytes(ring.PackedBytes(n, qBits[:len(qBits)-net.Params.ReplyDrop()]...), 2, false)
	rc.WireBytes = int64(rc.UpCiphertexts)*int64(rc.UpFrameBytes) + int64(rc.DownCiphertexts)*int64(rc.ReplyFrameBytes)
	return rc, nil
}

// NewInferenceClient generates the client's key material for the
// network architecture and marshals the evaluation keys once: a public
// key and the Galois keys the layers rotate by. The network is linear
// on the server, so no relinearization key is made.
func NewInferenceClient(net *Network, seed [32]byte) (*InferenceClient, error) {
	ctx, err := bfv.NewContext(net.Params)
	if err != nil {
		return nil, err
	}
	steps, convs, fcs, err := rotationStepsFor(net, nil, ctx.Params.N()/2)
	if err != nil {
		return nil, err
	}
	kg := bfv.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	kb := &protocol.KeyBundle{PK: kg.GenPublicKey(sk), Galois: kg.GenRotationKeys(sk, steps...)}
	return &InferenceClient{
		Net:      net,
		ctx:      ctx,
		sk:       sk,
		symEnc:   bfv.NewSymmetricEncryptor(ctx, sk, seed),
		dec:      bfv.NewDecryptor(ctx, sk),
		keyFrame: protocol.MarshalKeyBundle(kb),
		convs:    convs,
		fcs:      fcs,

		replyDrop: net.Params.ReplyDrop(),
	}, nil
}

// Setup ships the evaluation keys, unconditionally, to a peer that reads
// them with InferenceServer.ReadSession — two halves joined directly, as
// in the examples and the benchmark's pipe. A serve.Server refuses a
// bundle as first frame: open a session there with SetupSession, which
// also lets its key registry skip the upload on reconnect.
func (c *InferenceClient) Setup(t protocol.Transport) error {
	return t.Send(c.keyFrame)
}

// ErrServerBusy is returned by SetupSession when the server rejects
// the session at admission control (worker pool saturated, or the
// session's tenant is over quota).
var ErrServerBusy = errors.New("nn: server busy, session rejected")

// BusyError is the concrete rejection SetupSession returns when the
// server's busy ack carried a retry-after hint (per-tenant quota
// admission rather than permanent saturation). It matches ErrServerBusy
// under errors.Is, so existing callers keep working; retry-aware
// clients unwrap it with errors.As and back off for RetryAfter.
type BusyError struct{ RetryAfter time.Duration }

func (e *BusyError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("nn: server busy, session rejected (retry after %v)", e.RetryAfter)
	}
	return ErrServerBusy.Error()
}

// Is makes errors.Is(err, ErrServerBusy) hold for BusyError values.
func (e *BusyError) Is(target error) bool { return target == ErrServerBusy }

// SetupSession opens a session under a client-chosen ID. If the server
// still caches this ID's evaluation keys from an earlier connection,
// the multi-megabyte key upload is skipped entirely (the §3.3 one-time
// setup cost); otherwise the bundle is sent as in Setup. Returns
// whether the cached path was taken.
func (c *InferenceClient) SetupSession(t protocol.Transport, sessionID string) (cached bool, err error) {
	return c.SetupSessionTenant(t, sessionID, "")
}

// SetupSessionTenant opens a session declaring a tenant identity for
// the server's per-tenant quota admission. An empty tenant sends the
// legacy tenantless hello. A quota rejection surfaces as a *BusyError
// carrying the server's retry-after hint.
func (c *InferenceClient) SetupSessionTenant(t protocol.Transport, sessionID, tenant string) (cached bool, err error) {
	hello, err := protocol.MarshalHelloTenant(sessionID, tenant)
	if err != nil {
		return false, err
	}
	if err := t.Send(hello); err != nil {
		return false, fmt.Errorf("nn: send hello: %w", err)
	}
	raw, err := t.Recv()
	if err != nil {
		return false, fmt.Errorf("nn: receive hello ack: %w", err)
	}
	st, retryAfter, err := protocol.ParseHelloAck(raw)
	if err != nil {
		return false, err
	}
	switch st {
	case protocol.AckBusy:
		if retryAfter > 0 {
			return false, &BusyError{RetryAfter: retryAfter}
		}
		return false, ErrServerBusy
	case protocol.AckKeysCached:
		return true, nil
	case protocol.AckNeedKeys:
		if err := t.Send(c.keyFrame); err != nil {
			return false, fmt.Errorf("nn: send key bundle: %w", err)
		}
		return false, nil
	}
	return false, fmt.Errorf("nn: unexpected hello ack status %d", st)
}

// Infer classifies one image through the remote server.
func (c *InferenceClient) Infer(image [][]int64, t protocol.Transport) ([]int64, core.Stats, error) {
	var stats core.Stats
	net := c.Net
	act := image
	h, w := net.InH, net.InW
	slots := c.ctx.Params.Slots()

	send := func(ct *bfv.SeededCiphertext) error {
		data := protocol.MarshalSeededBFV(ct)
		stats.Encryptions++
		stats.UpCiphertexts++
		stats.UpBytes += int64(len(data)) + 4
		return t.Send(data)
	}
	// recv takes output group g of layer i. A reply at any level but the
	// parameter set's is refused: the plan's byte count is the wire's, and
	// a server that stops switching fails the request.
	recv := func(i, g int) (*bfv.Ciphertext, error) {
		raw, err := t.Recv()
		if err != nil {
			return nil, err
		}
		if msg, ok := protocol.ParseSessionError(raw); ok {
			return nil, fmt.Errorf("nn: the server failed the session: %s", msg)
		}
		stats.Decryptions++
		stats.DownCiphertexts++
		stats.DownBytes += int64(len(raw)) + 4
		ct, err := protocol.UnmarshalBFV(c.ctx, raw)
		if err == nil && ct.Drop != c.replyDrop {
			k := len(c.ctx.Params.QBits)
			err = fmt.Errorf("nn: layer %d output group %d arrived at %d residues, the parameter set's replies have %d", i, g, k-ct.Drop, k-c.replyDrop)
		}
		return ct, err
	}

	for i, l := range net.Layers {
		switch l.Kind {
		case Conv:
			conv := c.convs[i]
			packed, err := conv.PackInput(act, slots)
			if err != nil {
				return nil, stats, err
			}
			ct, err := c.symEnc.EncryptIntsSeeded(packed)
			if err != nil {
				return nil, stats, err
			}
			if err := send(ct); err != nil {
				return nil, stats, err
			}
			next := make([][]int64, l.OutC)
			for g := 0; g < conv.Groups(); g++ {
				outCt, err := recv(i, g)
				if err != nil {
					return nil, stats, err
				}
				decoded := c.dec.DecryptInts(outCt)
				for o := g * conv.GroupSize(); o < (g+1)*conv.GroupSize() && o < l.OutC; o++ {
					next[o] = conv.ExtractOutput(decoded, o)
				}
			}
			act = next
		case FC:
			fc := c.fcs[i]
			packed, err := fc.PackInput(flatten(act), slots)
			if err != nil {
				return nil, stats, err
			}
			ct, err := c.symEnc.EncryptIntsSeeded(packed)
			if err != nil {
				return nil, stats, err
			}
			if err := send(ct); err != nil {
				return nil, stats, err
			}
			outCt, err := recv(i, 0)
			if err != nil {
				return nil, stats, err
			}
			act = [][]int64{fc.ExtractOutput(c.dec.DecryptInts(outCt), c.ctx.T.Value)}
			h, w = 1, l.FCOut
		case Act:
			for ci := range act {
				for j := range act[ci] {
					v := act[ci][j]
					if v < 0 {
						v = 0
					}
					act[ci][j] = v >> l.RequantShift
				}
			}
		case Pool:
			act = avgPool2(act, h, w)
			h, w = h/2, w/2
		}
	}
	return flatten(act), stats, nil
}

// InferenceServer is the untrusted offload side holding the weights.
//
// Concurrency: everything compiled at construction (context, encoder,
// layer operators, weights) is immutable afterwards, so one
// InferenceServer may be shared by any number of concurrent sessions;
// all per-client mutable state (the evaluator holding that client's
// evaluation keys) lives in ServerSession.
type InferenceServer struct {
	Model *QuantizedModel

	ctx   *bfv.Context
	ecd   *bfv.Encoder
	convs map[int]*core.Conv2D
	fcs   map[int]*core.FC

	// replyDrop is how many data primes every finished output sheds
	// before it is sent (bfv.Parameters.ReplyDrop).
	replyDrop int
}

// ServerSession binds one client's evaluation keys to the shared
// compiled model. Sessions are cheap (one evaluator struct; the keys
// dominate) and safe to use concurrently with other sessions of the
// same InferenceServer. A single session may also serve several
// connections over its lifetime — the eval-key registry in
// internal/serve relies on exactly that for reconnects.
type ServerSession struct {
	s    *InferenceServer
	ev   *bfv.Evaluator
	exec KernelExecutor
}

// KernelExecutor intercepts a session's linear-layer evaluations. The
// serving tier installs one (via WithExecutor) to time each layer call
// and to run every session's layers over one shared weight-plaintext
// cache (core.ApplyBatch with its PlainCache); a nil executor means the
// direct Apply path over the operator's own plaintexts. Implementations
// must return results byte-identical to Apply — ServeOne treats the two
// as interchangeable.
type KernelExecutor interface {
	ExecConv(layer int, conv *core.Conv2D, ev *bfv.Evaluator, ct *bfv.Ciphertext, slots int) ([]*bfv.Ciphertext, core.OpCounts, error)
	ExecFC(layer int, fc *core.FC, ev *bfv.Evaluator, ct *bfv.Ciphertext, slots int) (*bfv.Ciphertext, core.OpCounts, error)
}

// WithExecutor returns a view of the session whose linear layers are
// evaluated through x instead of the direct Apply path. The receiver is
// not modified, so one registry-cached session can serve connections
// with and without an executor simultaneously.
func (sess *ServerSession) WithExecutor(x KernelExecutor) *ServerSession {
	return &ServerSession{s: sess.s, ev: sess.ev, exec: x}
}

// Encoder exposes the server's shared plaintext encoder — executors
// need it to prepare weight plaintexts on the session's behalf.
func (s *InferenceServer) Encoder() *bfv.Encoder { return s.ecd }

// NewSession installs a client's evaluation keys as a new session.
func (s *InferenceServer) NewSession(kb *protocol.KeyBundle) *ServerSession {
	return &ServerSession{s: s, ev: bfv.NewEvaluator(s.ctx, kb.Relin, kb.Galois)}
}

// NewSessionFromFrame decodes an already-received key-bundle frame
// into a session, wrapping decode errors with frame context.
func (s *InferenceServer) NewSessionFromFrame(raw []byte) (*ServerSession, error) {
	kb, err := protocol.UnmarshalKeyBundle(s.ctx, raw)
	if err != nil {
		return nil, fmt.Errorf("nn: decode key bundle frame (%d B): %w", len(raw), err)
	}
	return s.NewSession(kb), nil
}

// ReadSession receives the client's key-bundle frame from the
// transport and installs it as a new session.
func (s *InferenceServer) ReadSession(t protocol.Transport) (*ServerSession, error) {
	raw, err := t.Recv()
	if err != nil {
		return nil, fmt.Errorf("nn: receive key bundle frame: %w", err)
	}
	return s.NewSessionFromFrame(raw)
}

// NewInferenceServer compiles the weighted model; evaluation keys
// arrive from the client as sessions (ReadSession, NewSession).
func NewInferenceServer(m *QuantizedModel) (*InferenceServer, error) {
	ctx, err := bfv.NewContext(m.Net.Params)
	if err != nil {
		return nil, err
	}
	_, convs, fcs, err := rotationStepsFor(m.Net, m, ctx.Params.N()/2)
	if err != nil {
		return nil, err
	}
	return &InferenceServer{Model: m, ctx: ctx, ecd: bfv.NewEncoder(ctx), convs: convs, fcs: fcs,
		replyDrop: ctx.Params.ReplyDrop()}, nil
}

// ServeOne processes one inference request on this session: for each
// linear layer it receives the packed input ciphertext, evaluates, and
// returns the output group ciphertexts, each modulus-switched down to the
// parameter set's reply level first. The first Recv is the start of
// the request — a server may arm an idle timeout for it and a tighter
// I/O timeout for the frames that follow. Returns the server-side
// operation counts. Errors carry the failing layer and frame role.
func (sess *ServerSession) ServeOne(t protocol.Transport) (core.OpCounts, error) {
	return sess.ServeOneAccounted(t, nil)
}

// ServeOneAccounted is ServeOne for servers that publish per-request
// counters: account, when non-nil, runs once with the request's
// operation counts after the last layer is evaluated and before its
// final output frame is sent. That frame is what lets the client see
// the request as finished, so whatever account records is visible to
// anyone who has seen the reply. It is not called if the request fails
// before that point.
func (sess *ServerSession) ServeOneAccounted(t protocol.Transport, account func(core.OpCounts)) (core.OpCounts, error) {
	var ops core.OpCounts
	s := sess.s
	slots := s.ctx.Params.Slots()
	layers := s.Model.Net.Layers
	last := -1
	for i, l := range layers {
		if l.Kind == Conv || l.Kind == FC {
			last = i
		}
	}
	for i, l := range layers {
		if l.Kind != Conv && l.Kind != FC {
			continue
		}
		kind := "conv"
		if l.Kind == FC {
			kind = "fc"
		}
		raw, err := t.Recv()
		if err != nil {
			return ops, fmt.Errorf("nn: layer %d (%s) recv input: %w", i, kind, err)
		}
		ct, err := protocol.UnmarshalAnyBFV(s.ctx, raw)
		if err != nil {
			return ops, fmt.Errorf("nn: layer %d (%s) decode input (%d B): %w", i, kind, len(raw), err)
		}
		outs, layerOps, err := sess.evalLayer(i, l.Kind, ct, slots)
		if err != nil {
			return ops, fmt.Errorf("nn: layer %d (%s) evaluate: %w", i, kind, err)
		}
		ops.Add(layerOps)
		for g, o := range outs {
			// A finished output is this request's alone and is only ever
			// decrypted: it sheds the primes decryption does not need, and
			// both sizes go back to their rings' pools once marshalled.
			for d := 0; d < s.replyDrop; d++ {
				small, err := sess.ev.ModSwitchDown(o)
				if err != nil {
					return ops, fmt.Errorf("nn: layer %d (%s) switch output group %d/%d down: %w", i, kind, g+1, len(outs), err)
				}
				sess.ev.RecycleCt(o)
				o = small
			}
			frame := protocol.MarshalBFV(o)
			sess.ev.RecycleCt(o)
			if account != nil && i == last && g == len(outs)-1 {
				account(ops)
			}
			if err := t.Send(frame); err != nil {
				return ops, fmt.Errorf("nn: layer %d (%s) send output group %d/%d: %w", i, kind, g+1, len(outs), err)
			}
		}
	}
	return ops, nil
}

// evalLayer evaluates linear layer i over one input, through the
// session's executor when one is installed; an FC layer's single output
// comes back as a one-element group list.
func (sess *ServerSession) evalLayer(i int, kind LayerKind, ct *bfv.Ciphertext, slots int) ([]*bfv.Ciphertext, core.OpCounts, error) {
	s := sess.s
	if kind == Conv {
		if sess.exec != nil {
			return sess.exec.ExecConv(i, s.convs[i], sess.ev, ct, slots)
		}
		return s.convs[i].Apply(sess.ev, s.ecd, ct, slots)
	}
	var out *bfv.Ciphertext
	var ops core.OpCounts
	var err error
	if sess.exec != nil {
		out, ops, err = sess.exec.ExecFC(i, s.fcs[i], sess.ev, ct, slots)
	} else {
		out, ops, err = s.fcs[i].Apply(sess.ev, s.ecd, ct, slots)
	}
	if err != nil {
		return nil, ops, err
	}
	return []*bfv.Ciphertext{out}, ops, nil
}

// ServerOps aliases the operation-count type returned by ServeOne so
// deployments need not import internal/core directly.
type ServerOps = core.OpCounts
