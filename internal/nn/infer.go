package nn

import (
	"fmt"

	"choco/internal/bfv"
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

// Runner executes client-aided encrypted inference: linear layers on
// an (untrusted) evaluator reached through a transport, nonlinear
// layers locally in plaintext, with full byte and operation
// accounting.
type Runner struct {
	Model *QuantizedModel

	ctx    *bfv.Context
	sk     *bfv.SecretKey
	symEnc *bfv.SymmetricEncryptor
	dec    *bfv.Decryptor
	ecd    *bfv.Encoder
	ev     *bfv.Evaluator

	convs map[int]*core.Conv2D
	fcs   map[int]*core.FC
}

// NewRunner compiles the model's linear layers against the network's
// BFV preset and generates exactly the Galois keys they need.
func NewRunner(m *QuantizedModel, seed [32]byte) (*Runner, error) {
	ctx, err := bfv.NewContext(m.Net.Params)
	if err != nil {
		return nil, err
	}
	rotSteps, convs, fcs, err := rotationStepsFor(m.Net, m, ctx.Params.N()/2)
	if err != nil {
		return nil, err
	}
	r := &Runner{Model: m, ctx: ctx, convs: convs, fcs: fcs}

	kg := bfv.NewKeyGenerator(ctx, seed)
	r.sk = kg.GenSecretKey()
	relin := kg.GenRelinearizationKey(r.sk)
	galois := kg.GenRotationKeys(r.sk, rotSteps...)
	r.symEnc = bfv.NewSymmetricEncryptor(ctx, r.sk, seed)
	r.dec = bfv.NewDecryptor(ctx, r.sk)
	r.ecd = bfv.NewEncoder(ctx)
	r.ev = bfv.NewEvaluator(ctx, relin, galois)
	return r, nil
}

// Infer runs one image through the client-aided protocol. The client
// and server halves exchange serialized ciphertexts through the given
// transports (clientEnd ↔ serverEnd), so the returned stats reflect
// real wire traffic.
func (r *Runner) Infer(image [][]int64, clientEnd, serverEnd protocol.Transport) ([]int64, core.Stats, error) {
	var stats core.Stats
	net := r.Model.Net
	act := image
	h, w := net.InH, net.InW
	slots := r.ctx.Params.Slots()

	sendToServer := func(ct *bfv.SeededCiphertext) (*bfv.Ciphertext, error) {
		data := protocol.MarshalSeededBFV(ct)
		if err := clientEnd.Send(data); err != nil {
			return nil, err
		}
		stats.UpCiphertexts++
		stats.UpBytes += int64(len(data)) + 4
		raw, err := serverEnd.Recv()
		if err != nil {
			return nil, err
		}
		return protocol.UnmarshalAnyBFV(r.ctx, raw)
	}
	sendToClient := func(ct *bfv.Ciphertext) (*bfv.Ciphertext, error) {
		data := protocol.MarshalBFV(ct)
		if err := serverEnd.Send(data); err != nil {
			return nil, err
		}
		stats.DownCiphertexts++
		stats.DownBytes += int64(len(data)) + 4
		raw, err := clientEnd.Recv()
		if err != nil {
			return nil, err
		}
		return protocol.UnmarshalBFV(r.ctx, raw)
	}

	for i, l := range net.Layers {
		switch l.Kind {
		case Conv:
			conv := r.convs[i]
			packed, err := conv.PackInput(act, slots)
			if err != nil {
				return nil, stats, fmt.Errorf("nn: layer %d pack: %w", i, err)
			}
			ct, err := r.symEnc.EncryptIntsSeeded(packed)
			if err != nil {
				return nil, stats, err
			}
			stats.Encryptions++
			srvIn, err := sendToServer(ct)
			if err != nil {
				return nil, stats, err
			}
			outs, ops, err := conv.Apply(r.ev, r.ecd, srvIn, slots)
			if err != nil {
				return nil, stats, fmt.Errorf("nn: layer %d conv: %w", i, err)
			}
			stats.Server.Add(ops)
			next := make([][]int64, l.OutC)
			for g, outCt := range outs {
				cliCt, err := sendToClient(outCt)
				if err != nil {
					return nil, stats, err
				}
				decoded := r.dec.DecryptInts(cliCt)
				stats.Decryptions++
				for o := g * conv.GroupSize(); o < (g+1)*conv.GroupSize() && o < l.OutC; o++ {
					next[o] = conv.ExtractOutput(decoded, o)
				}
			}
			act = next
		case FC:
			fc := r.fcs[i]
			packed, err := fc.PackInput(flatten(act), slots)
			if err != nil {
				return nil, stats, fmt.Errorf("nn: layer %d pack: %w", i, err)
			}
			ct, err := r.symEnc.EncryptIntsSeeded(packed)
			if err != nil {
				return nil, stats, err
			}
			stats.Encryptions++
			srvIn, err := sendToServer(ct)
			if err != nil {
				return nil, stats, err
			}
			out, ops, err := fc.Apply(r.ev, r.ecd, srvIn, slots)
			if err != nil {
				return nil, stats, fmt.Errorf("nn: layer %d fc: %w", i, err)
			}
			stats.Server.Add(ops)
			cliCt, err := sendToClient(out)
			if err != nil {
				return nil, stats, err
			}
			decoded := r.dec.DecryptInts(cliCt)
			stats.Decryptions++
			act = [][]int64{fc.ExtractOutput(decoded, r.ctx.T.Value)}
			h, w = 1, l.FCOut
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
		}
	}
	return flatten(act), stats, nil
}
