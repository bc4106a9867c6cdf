package nn

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"choco/internal/bfv"
	"choco/internal/core"
	"choco/internal/protocol"
)

// The split client/server API deploys client-aided inference across a
// real transport: the client holds the secret key and the network
// *architecture* (it needs layer shapes to pack, unpack, and run the
// plaintext non-linear layers); the server holds the model weights —
// the centralized-model advantage of §1 — plus the client's key bundle
// (its public key) received once at session setup. Every linear layer is
// one plaintext product (compileLayers), so the server rotates nothing
// and holds no Galois key. The model is not hidden from the client
// (DESIGN.md §15): before its first request the client fetches the
// layers' weights once (fetchModel), and from then on every reply
// carries c0 alone, the client rebuilding c1 from its own upload
// (bfv.Context.ProductC1). Both directions carry c0 rounded to the bits
// the noise needs (protocol.AppendRoundedUpload, AppendRoundedRead), at
// widths both ends derive from the parameter set and the layer
// (uploadWidths, bfv.Parameters.ReplyBits); an upload carries no seed.

// InferenceClient is the trusted, resource-constrained side.
type InferenceClient struct {
	Net *Network

	ctx    *bfv.Context
	sk     *bfv.SecretKey
	ecd    *bfv.Encoder
	symEnc *bfv.SymmetricEncryptor
	dec    *bfv.Decryptor
	// keyFrame is the key bundle, marshalled once: the client keeps the
	// bytes it sends, not the unpacked key.
	keyFrame []byte

	convs map[int]*core.Conv2D
	fcs   map[int]*core.FC
	// reads are the coefficients each reply carries (readSets), by layer
	// and output group.
	reads map[int][][]int
	// model lists the linear layers as the model frame carries them
	// (modelLayers), and kernels holds their kernel polynomials, by layer
	// and output group, once the first Infer has fetched the model
	// (fetchModel): a reply's c1 is the upload's a times one of them,
	// switched down.
	model   []protocol.ModelLayer
	kernels map[int][]*bfv.PlaintextQ
	// scratch holds the buffers one Infer call reuses from layer to layer
	// and hands to the next call (inferScratch).
	scratch sync.Pool

	// replyDrop is the level every reply must arrive at
	// (bfv.Parameters.ReplyDrop); Infer refuses any other. replyBits is
	// the width its c0 is rounded to, and uploadBits, by layer, the width
	// of each upload (uploadWidths, set with the kernels).
	replyDrop, replyBits int
	uploadBits           map[int]int
}

// inferScratch is what a request writes and drops again: each layer's
// packed input, its upload frame, which a transport has copied or
// written once Send returns, and each reply's decoded coefficients.
type inferScratch struct {
	packed, decoded []int64
	frame           []byte
}

// compileLayers compiles the network's linear layers against the ring's
// row size, identically on both sides because it depends only on shapes.
// Every layer takes the product packing (DESIGN.md §15): one plaintext
// product, no rotation and no key. A layer no product lays out is
// refused: a convolution whose one output channel does not fit a
// polynomial, and an FC layer that is square or whose Out·In
// coefficients exceed N. With a model the operators carry its weights
// (the evaluating side); with nil they are spec-only (the client's
// packing half).
func compileLayers(net *Network, m *QuantizedModel, rowSize int) (map[int]*core.Conv2D, map[int]*core.FC, error) {
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
		case FC:
			hh, ww, cc := net.shapeAt(i)
			in := hh * ww * cc
			fcs[i], err = core.NewFCSpecOnly(in, l.FCOut, rowSize)
			if err != nil || !fcs[i].Product() {
				return nil, nil, fmt.Errorf("nn: layer %d: an FC layer of %d×%d takes no product packing at N = %d: it is square, or Out·In > N", i, in, l.FCOut, 2*rowSize)
			}
			if m != nil {
				fcs[i], err = core.NewFC(in, l.FCOut, m.FCW[i], rowSize)
			}
			h, w = 1, l.FCOut
		case Pool:
			h, w = h/2, w/2
		}
		if err != nil {
			return nil, nil, fmt.Errorf("nn: layer %d: %w", i, err)
		}
	}
	return convs, fcs, nil
}

// EvaluationKeyFootprint reports the one-time client→server setup
// cost for a network: the number of distinct Galois keys its layers
// need and the serialized bundle size (public key + seeded Galois keys;
// no relinearization key, since every layer is linear, and no row-swap
// key, since no layer swaps rows). The paper, like
// its baselines' "offline" phases, amortizes this over the deployment
// lifetime; the number matters for real clients, so we account for it.
func EvaluationKeyFootprint(net *Network) (galoisKeys int, bundleBytes int64, err error) {
	params := net.Params
	rowSize := params.N() / 2
	// A layer that takes the product packing needs no step. Unlike the
	// executable path, a convolution no packing lays out is priced on the
	// slot packing's step model (slotSteps), and FC widths clamp to one
	// row — wide layers split across ciphertexts but reuse the same steps.
	set := map[int]bool{}
	h, w := net.InH, net.InW
	for i, l := range net.Layers {
		var steps []int
		switch l.Kind {
		case Conv:
			_, _, c := net.shapeAt(i)
			spec := core.ConvSpec{InH: h, InW: w, InC: c, KH: l.KH, KW: l.KW, OutC: l.OutC}
			if _, err := core.NewConv2DSpecOnly(spec, rowSize); err != nil {
				if steps, err = slotSteps(spec, rowSize); err != nil {
					return 0, 0, fmt.Errorf("nn: layer %d: %w", i, err)
				}
			}
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
	galoisKeys = len(set)

	bundleBytes = int64(protocol.KeyBundleBytes(params.N(), params.QBits, params.PBits, false, galoisKeys))
	return galoisKeys, bundleBytes, nil
}

// slotSteps models the rotation steps of the slot packing convolutions
// ran on before the product packing replaced it (DESIGN.md §13): each
// input channel's zero-haloed Hp×Wp window in a block of stride
// nextPow2(Hp·Wp), Cb = rowSize/stride blocks a row, the channels
// clamped to Cb (a wider layer splits them across ciphertexts and reuses
// the steps) and repeated to fill the row when they divide it. Babies
// are the kernel offsets mod rowSize; giants are d·stride for each block
// shift d that brings a channel to some output block of the first group
// of 2·Cb outputs.
func slotSteps(spec core.ConvSpec, rowSize int) ([]int, error) {
	if spec.KH%2 == 0 || spec.KW%2 == 0 || spec.InH < 1 || spec.InW < 1 || spec.InC < 1 || spec.OutC < 1 {
		return nil, fmt.Errorf("nn: convolution %+v has no slot layout", spec)
	}
	hp, wp := spec.InH+spec.KH-1, spec.InW+spec.KW-1
	stride := 1
	for stride < hp*wp {
		stride <<= 1
	}
	if stride > rowSize {
		return nil, fmt.Errorf("nn: a %d×%d window needs %d slots, a row has %d", hp, wp, stride, rowSize)
	}
	cb := rowSize / stride
	inC := min(spec.InC, cb)
	var steps []int
	for ky := 0; ky < spec.KH; ky++ {
		for kx := 0; kx < spec.KW; kx++ {
			if delta := (ky-spec.KH/2)*wp + kx - spec.KW/2; delta != 0 {
				steps = append(steps, (delta+rowSize)%rowSize)
			}
		}
	}
	repeat, shifts := cb%inC == 0, cb
	if repeat {
		shifts = inC
	}
	for d := 1; d < shifts; d++ {
		for b := 0; b < min(2*cb, spec.OutC); b++ {
			if repeat || (b+d)%cb < inC {
				steps = append(steps, d*stride)
				break
			}
		}
	}
	return steps, nil
}

// uploadWidths returns, by layer, the width each product layer's upload
// is rounded to (bfv.Parameters.UploadBits) under weights of weightBits
// bits (kernelNorms). The client and the server derive it alike, the
// client with the width its model frame names.
func uploadWidths(p bfv.Parameters, convs map[int]*core.Conv2D, fcs map[int]*core.FC, weightBits int) map[int]int {
	widths := map[int]int{}
	for i, norm := range kernelNorms(convs, fcs, weightBits) {
		widths[i] = p.UploadBits(norm)
	}
	return widths
}

// kernelNorms returns, by layer, the bound on the ℓ2 norm of a product
// layer's kernel polynomial that the upload width rule reads:
// √w·(2^(b−1) − 1) for the w weights of one output group's kernel — a
// convolution tile's GroupSize channels, an FC layer's every weight —
// each within the symmetric quantization's ±(2^(b−1) − 1)
// (protocol.MarshalModel refuses any other).
func kernelNorms(convs map[int]*core.Conv2D, fcs map[int]*core.FC, weightBits int) map[int]float64 {
	maxWeight := float64(int64(1)<<(weightBits-1) - 1)
	norms := map[int]float64{}
	for i, conv := range convs {
		s := conv.Spec
		norms[i] = math.Sqrt(float64(min(conv.GroupSize(), s.OutC)*s.InC*s.KH*s.KW)) * maxWeight
	}
	for i, fc := range fcs {
		norms[i] = math.Sqrt(float64(fc.Out*fc.In)) * maxWeight
	}
	return norms
}

// RequestCost is what one inference costs on the executable path, read
// from the compiled operators' own plans — no keys, no ciphertexts: what
// the client moves, and the server's work when no weight is zero.
type RequestCost struct {
	UpCiphertexts, DownCiphertexts int
	// UploadBytes prices every upload in the order the client sends them:
	// c0 rounded to its layer's width (uploadWidths,
	// protocol.RoundedFrameBytes). ReplyBytes prices every reply in the
	// order the server sends them, at the primes left after the parameter
	// set's ReplyDrop: each carries c0 rounded to ReplyBits at its group's
	// read coefficients and nothing else.
	// WireBytes is the request's total.
	UploadBytes []int
	ReplyBytes  []int
	WireBytes   int64
	// ModelBytes is what the client's first request moves once, before
	// its first upload: the model request and the model frame holding the
	// linear layers' weights (protocol.ModelExchangeBytes), priced at
	// modelWeightBits; 0 for a network with no linear layer.
	ModelBytes int
	Server     core.OpCounts
}

// modelWeightBits is the weight width ExecutableRequestCost prices the
// model frame at: CHOCO's 4-bit quantization (§3.2), the width every
// network here is synthesized at.
const modelWeightBits = 4

// ExecutableRequestCost plans one inference of a network the split
// client/server can run, its weights at modelWeightBits. Unlike CommPlan
// — the analytic model, which assumes densely condensed, full-size
// downloads — it counts the reply ciphertexts the operators' packing
// produces, at the level they are sent and with the coefficients they
// carry: conv2 of LeNet-Sm replies in two tiles where the model condenses
// its outputs into one ciphertext, and each reply carries c0 at its read
// coefficients only, both directions at their rounded widths.
// The one-time model exchange is ModelBytes, outside WireBytes.
func ExecutableRequestCost(net *Network) (RequestCost, error) {
	var rc RequestCost
	convs, fcs, err := compileLayers(net, nil, net.Params.N()/2)
	if err != nil {
		return rc, err
	}
	n, replyBits := net.Params.N(), net.Params.ReplyBits()
	uploadBits := uploadWidths(net.Params, convs, fcs, modelWeightBits)
	reads := readSets(convs, fcs)
	if model := modelLayers(net, convs, fcs); len(model) > 0 {
		rc.ModelBytes = protocol.ModelExchangeBytes(model, modelWeightBits)
	}
	for i := range net.Layers {
		var plan core.RotationPlan
		groups := 1
		if conv, ok := convs[i]; ok {
			plan, groups = conv.Plan(), conv.Groups()
		} else if fc, ok := fcs[i]; ok {
			plan = fc.Plan(fc.HoistLevel())
		} else {
			continue
		}
		rc.UpCiphertexts++
		upload := protocol.RoundedFrameBytes(n, uploadBits[i])
		rc.UploadBytes = append(rc.UploadBytes, upload)
		rc.WireBytes += int64(upload)
		rc.DownCiphertexts += groups
		rc.Server.Add(core.OpCounts{Rotations: plan.BabySteps + plan.GiantSteps,
			PlainMults: plan.PlainMults, Adds: plan.PlainMults - groups})
		for g := 0; g < groups; g++ {
			reply := protocol.RoundedFrameBytes(len(reads[i][g]), replyBits)
			rc.ReplyBytes = append(rc.ReplyBytes, reply)
			rc.WireBytes += int64(reply)
		}
	}
	return rc, nil
}

// readSets lists, per linear layer, the coefficients each output group's
// reply carries (ReadIndices). The client and the server derive them
// alike, from the shapes.
func readSets(convs map[int]*core.Conv2D, fcs map[int]*core.FC) map[int][][]int {
	sets := map[int][][]int{}
	for i, conv := range convs {
		for g := 0; g < conv.Groups(); g++ {
			sets[i] = append(sets[i], conv.ReadIndices(g))
		}
	}
	for i, fc := range fcs {
		sets[i] = [][]int{fc.ReadIndices(0)}
	}
	return sets
}

// modelLayers lists the linear layers, in network order, as the model
// frame carries them: a convolution's weights [out][in][tap], an FC
// layer's [row][column]. The client and the server derive it alike.
func modelLayers(net *Network, convs map[int]*core.Conv2D, fcs map[int]*core.FC) []protocol.ModelLayer {
	var out []protocol.ModelLayer
	for i := range net.Layers {
		if conv, ok := convs[i]; ok {
			out = append(out, protocol.ModelLayer{Index: i, Out: conv.Spec.OutC, In: conv.Spec.InC, Taps: conv.Spec.KH * conv.Spec.KW})
		} else if fc, ok := fcs[i]; ok {
			out = append(out, protocol.ModelLayer{Index: i, Out: fc.Out, In: fc.In, Taps: 1})
		}
	}
	return out
}

// NewInferenceClient generates the client's key material for the
// network architecture and marshals the key bundle once: the public key
// and no other. Every layer is one plaintext product on the server
// (compileLayers), so no Galois or relinearization key is made.
func NewInferenceClient(net *Network, seed [32]byte) (*InferenceClient, error) {
	ctx, err := bfv.NewContext(net.Params)
	if err != nil {
		return nil, err
	}
	convs, fcs, err := compileLayers(net, nil, ctx.Params.N()/2)
	if err != nil {
		return nil, err
	}
	kg := bfv.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	kb := &protocol.KeyBundle{PK: kg.GenPublicKey(sk)}
	return &InferenceClient{
		Net:      net,
		ctx:      ctx,
		sk:       sk,
		ecd:      bfv.NewEncoder(ctx),
		symEnc:   bfv.NewSymmetricEncryptor(ctx, sk, seed),
		dec:      bfv.NewDecryptor(ctx, sk),
		keyFrame: protocol.MarshalKeyBundle(kb),
		convs:    convs,
		fcs:      fcs,
		reads:    readSets(convs, fcs),
		model:    modelLayers(net, convs, fcs),

		replyDrop: net.Params.ReplyDrop(),
		replyBits: net.Params.ReplyBits(),
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

	sc, _ := c.scratch.Get().(*inferScratch)
	if sc == nil {
		sc = &inferScratch{packed: make([]int64, slots), decoded: make([]int64, c.ctx.Params.N())}
	}
	defer c.scratch.Put(sc)
	packed, decoded := sc.packed, sc.decoded
	if c.kernels == nil && len(c.model) > 0 {
		if err := c.fetchModel(t, &stats); err != nil {
			return nil, stats, err
		}
	}
	// send uploads layer i's input: c0 rounded to the layer's width, no
	// seed; the encryptor keeps a, which recv needs.
	send := func(i int, ct *bfv.SeededCiphertext) error {
		data := protocol.AppendRoundedUpload(sc.frame[:0], c.ctx, ct.C0, c.uploadBits[i])
		sc.frame = data
		c.ctx.RingQ.PutPoly(ct.C0)
		stats.Encryptions++
		stats.UpCiphertexts++
		stats.UpBytes += int64(len(data)) + 4
		return t.Send(data)
	}
	// recv takes output group g of layer i: a rounded read reply, lifted
	// and completed with the c1 the client rebuilds from its upload's a
	// (still the encryptor's: no other encryption has run since) and the
	// group's kernel, and an error naming the layer and group for anything
	// else. A reply at any level but the parameter set's is refused: the
	// plan's byte count is the wire's, and a server that stops switching
	// fails the request.
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
		ct, err := protocol.UnmarshalRoundedRead(c.ctx, raw, c.reads[i][g], c.replyBits)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d output group %d: %w", i, g, err)
		}
		if ct.Drop != c.replyDrop {
			k := len(c.ctx.Params.QBits)
			c.ctx.RecycleCt(ct)
			return nil, fmt.Errorf("nn: layer %d output group %d arrived at %d residues, the parameter set's replies have %d", i, g, k-ct.Drop, k-c.replyDrop)
		}
		ct.Value = append(ct.Value, c.ctx.ProductC1(c.symEnc.A(), c.kernels[i][g], c.replyDrop))
		return ct, nil
	}

	for i, l := range net.Layers {
		switch l.Kind {
		case Conv:
			conv := c.convs[i]
			if err := conv.PackInputInto(packed, act); err != nil {
				return nil, stats, err
			}
			ct, err := c.encrypt(packed)
			if err != nil {
				return nil, stats, err
			}
			if err := send(i, ct); err != nil {
				return nil, stats, err
			}
			next := make([][]int64, l.OutC)
			for g := 0; g < conv.Groups(); g++ {
				outCt, err := recv(i, g)
				if err != nil {
					return nil, stats, err
				}
				decoded := c.decrypt(outCt, c.reads[i][g], decoded)
				c.ctx.RecycleCt(outCt)
				for o := g * conv.GroupSize(); o < (g+1)*conv.GroupSize() && o < l.OutC; o++ {
					next[o] = conv.ExtractOutput(decoded, o)
				}
			}
			act = next
		case FC:
			fc := c.fcs[i]
			if err := fc.PackInputInto(packed, flatten(act)); err != nil {
				return nil, stats, err
			}
			ct, err := c.encrypt(packed)
			if err != nil {
				return nil, stats, err
			}
			if err := send(i, ct); err != nil {
				return nil, stats, err
			}
			outCt, err := recv(i, 0)
			if err != nil {
				return nil, stats, err
			}
			act = [][]int64{fc.ExtractOutput(c.decrypt(outCt, c.reads[i][0], decoded), c.ctx.T.Value)}
			c.ctx.RecycleCt(outCt)
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

// fetchModel asks the server for the linear layers' weights and builds
// their kernels with the operators and the lift the server uses
// (core.Conv2D.Kernels, bfv.Context.PrepareMulQ), and the uploads'
// widths from the weights' (uploadWidths). It runs on the first
// Infer, before the first upload; its two frames count in that request's
// stats. The frame is checked against the client's own architecture
// (protocol.UnmarshalModel).
func (c *InferenceClient) fetchModel(t protocol.Transport, stats *core.Stats) error {
	req := protocol.MarshalModelRequest()
	stats.UpBytes += int64(len(req)) + 4
	if err := t.Send(req); err != nil {
		return fmt.Errorf("nn: send model request: %w", err)
	}
	raw, err := t.Recv()
	if err != nil {
		return fmt.Errorf("nn: receive model: %w", err)
	}
	stats.DownBytes += int64(len(raw)) + 4
	if msg, ok := protocol.ParseSessionError(raw); ok {
		return fmt.Errorf("nn: the server failed the session: %s", msg)
	}
	bits, weights, err := protocol.UnmarshalModel(raw, c.model)
	if err != nil {
		return fmt.Errorf("nn: model frame: %w", err)
	}
	rowSize := c.ctx.Params.N() / 2
	kernels := map[int][]*bfv.PlaintextQ{}
	for j, l := range c.model {
		w := weights[j]
		if conv, ok := c.convs[l.Index]; ok {
			shaped := make([][][]int64, l.Out)
			for o := range shaped {
				shaped[o] = make([][]int64, l.In)
				for ch := range shaped[o] {
					shaped[o][ch], w = w[:l.Taps], w[l.Taps:]
				}
			}
			op, err := core.NewConv2D(conv.Spec, shaped, rowSize)
			if err != nil {
				return fmt.Errorf("nn: layer %d: %w", l.Index, err)
			}
			kernels[l.Index] = op.Kernels(c.ctx)
			continue
		}
		rows := make([][]int64, l.Out)
		for r := range rows {
			rows[r], w = w[:l.In], w[l.In:]
		}
		op, err := core.NewFC(l.In, l.Out, rows, rowSize)
		if err != nil {
			return fmt.Errorf("nn: layer %d: %w", l.Index, err)
		}
		kernels[l.Index] = op.Kernels(c.ctx)
	}
	c.kernels = kernels
	c.uploadBits = uploadWidths(c.ctx.Params, c.convs, c.fcs, bits)
	return nil
}

// encrypt seals one packed layer input, written straight into the
// plaintext's coefficients.
func (c *InferenceClient) encrypt(packed []int64) (*bfv.SeededCiphertext, error) {
	pt, err := c.ecd.EncodeCoeffs(packed)
	if err != nil {
		return nil, err
	}
	ct := c.symEnc.EncryptSeeded(pt)
	c.ctx.RingT.PutPoly(pt.Poly)
	return ct, nil
}

// decrypt opens one reply: the centered coefficients reads, the only
// ones its layer's operator extracts, written into out (whose other
// entries are stale) and returned.
func (c *InferenceClient) decrypt(ct *bfv.Ciphertext, reads []int, out []int64) []int64 {
	pt := &bfv.Plaintext{Poly: c.ctx.RingT.GetPoly()}
	c.dec.DecryptAt(ct, reads, pt)
	c.ecd.DecodeCoeffsInto(pt, out)
	c.ctx.RingT.PutPoly(pt.Poly)
	return out
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
	// reads are the coefficients each reply carries (readSets), by layer
	// and output group.
	reads map[int][][]int
	// modelFrame is the linear layers' weights as a client fetches them
	// (protocol.MarshalModel), marshalled once.
	modelFrame []byte
	// frames holds reply-frame buffers: a request marshals reply after
	// reply into one, and hands it to the next request.
	frames sync.Pool

	// replyDrop is how many data primes every finished output sheds
	// before it is sent (bfv.Parameters.ReplyDrop), and replyBits the width
	// its c0 is rounded to; uploadBits holds each layer's upload width
	// (uploadWidths).
	replyDrop, replyBits int
	uploadBits           map[int]int
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
// serving tier installs one (via WithExecutor) to time each layer call;
// a nil executor means the direct Apply path over the operator's own
// kernel. Implementations must return results byte-identical to Apply —
// ServeOne treats the two as interchangeable.
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

// Encoder exposes the server's shared plaintext encoder, which an
// executor hands to the layers' Apply.
func (s *InferenceServer) Encoder() *bfv.Encoder { return s.ecd }

// NewSessionFromFrame decodes an already-received key-bundle frame
// into a new session, wrapping decode errors with frame context. Every
// layer the server runs is a plaintext product, which neither rotates
// nor relinearizes, so it refuses a bundle that carries any Galois or
// relinearization key, saying how many: a session holds the public key
// and nothing else.
func (s *InferenceServer) NewSessionFromFrame(raw []byte) (*ServerSession, error) {
	kb, err := protocol.UnmarshalKeyBundle(s.ctx, raw)
	if err != nil {
		return nil, fmt.Errorf("nn: decode key bundle frame (%d B): %w", len(raw), err)
	}
	if len(kb.Galois) != 0 || kb.Relin != nil {
		relin := 0
		if kb.Relin != nil {
			relin = 1
		}
		return nil, fmt.Errorf("nn: key bundle frame (%d B) carries %d Galois and %d relinearization key(s); the served layers are products and take none", len(raw), len(kb.Galois), relin)
	}
	return &ServerSession{s: s, ev: bfv.NewEvaluator(s.ctx, nil, nil)}, nil
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
// arrive from the client as sessions (ReadSession, NewSessionFromFrame).
func NewInferenceServer(m *QuantizedModel) (*InferenceServer, error) {
	ctx, err := bfv.NewContext(m.Net.Params)
	if err != nil {
		return nil, err
	}
	convs, fcs, err := compileLayers(m.Net, m, ctx.Params.N()/2)
	if err != nil {
		return nil, err
	}
	for _, conv := range convs {
		conv.Kernels(ctx)
	}
	for _, fc := range fcs {
		fc.Kernels(ctx)
	}
	model := modelLayers(m.Net, convs, fcs)
	weights := make([][]int64, len(model))
	for j, l := range model {
		if conv, ok := m.ConvW[l.Index]; ok {
			for _, out := range conv {
				weights[j] = append(weights[j], slices.Concat(out...)...)
			}
		} else {
			weights[j] = slices.Concat(m.FCW[l.Index]...)
		}
	}
	frame, err := protocol.MarshalModel(model, weights, m.WeightBits)
	if err != nil {
		return nil, fmt.Errorf("nn: model frame: %w", err)
	}
	return &InferenceServer{Model: m, ctx: ctx, ecd: bfv.NewEncoder(ctx), convs: convs, fcs: fcs,
		reads: readSets(convs, fcs), modelFrame: frame, replyDrop: ctx.Params.ReplyDrop(),
		replyBits: ctx.Params.ReplyBits(), uploadBits: uploadWidths(ctx.Params, convs, fcs, m.WeightBits)}, nil
}

// ServeOne processes one inference request on this session: for each
// linear layer it receives the packed input ciphertext, evaluates, and
// returns the output group ciphertexts, each modulus-switched down to the
// parameter set's reply level first. A layer's upload is its c0 alone,
// rounded (protocol.UnmarshalRoundedUpload), and each of its groups'
// replies is that half's c0, rounded, at the coefficients the client
// reads (protocol.AppendRoundedRead): the client rebuilds c1. A request that
// opens with a model request is answered with the model frame first
// (the client's first request does). The first Recv is the start of
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
	first, last := -1, -1
	for i, l := range layers {
		if l.Kind == Conv || l.Kind == FC {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	buf, _ := s.frames.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	defer s.frames.Put(buf)
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
		if i == first && protocol.IsModelRequest(raw) {
			if err := t.Send(s.modelFrame); err != nil {
				return ops, fmt.Errorf("nn: send model: %w", err)
			}
			if raw, err = t.Recv(); err != nil {
				return ops, fmt.Errorf("nn: layer %d (%s) recv input: %w", i, kind, err)
			}
		}
		ct, err := protocol.UnmarshalRoundedUpload(s.ctx, raw, s.uploadBits[i])
		if err != nil {
			return ops, fmt.Errorf("nn: layer %d (%s) decode input (%d B): %w", i, kind, len(raw), err)
		}
		outs, layerOps, err := sess.evalLayer(i, l.Kind, ct, slots)
		if err != nil {
			return ops, fmt.Errorf("nn: layer %d (%s) evaluate: %w", i, kind, err)
		}
		sess.ev.RecycleCt(ct) // the outputs are ciphertexts of their own
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
			frame := protocol.AppendRoundedRead((*buf)[:0], s.ctx, o.Value[0], s.reads[i][g], s.replyBits)
			*buf = frame // the transport has copied or written it once Send returns
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
