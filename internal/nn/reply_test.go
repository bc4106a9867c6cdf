package nn

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"choco/internal/bfv"
	"choco/internal/core"
	"choco/internal/protocol"
	"choco/internal/ring"
)

// replyRow is one finished output as replyProbe saw it: the noise budget
// before and after the switch down to the reply level.
type replyRow struct {
	layer, group  int
	before, after float64
	residues      int
}

// replyProbe is a KernelExecutor that runs the serial path and, holding
// the client's secret key, switches a copy of every finished output down
// to the reply level the way ServeOne is about to. For a product-packed
// layer, whose upload the server reads as c0 alone, it also runs the
// layer on the full upload the seed stands for (c0 and the client's a).
// It fails the test unless the switched full output decrypts to the same
// slots as the unswitched one, and, for a product-packed layer, unless
// the server's half switches to that output's c0 word for word, the c1
// the client rebuilds (bfv.Context.ProductC1) is that output's c1 word
// for word, and the c0-only frame completed with it decrypts to the full
// output's coefficients at every read index. With noise set it records
// the budget on both sides of the switch.
type replyProbe struct {
	t      *testing.T
	srv    *InferenceServer
	client *InferenceClient
	noise  bool
	rows   []replyRow
}

// run evaluates one layer through apply and measures its outputs. It
// runs on the server's goroutine, so a failed check is reported with
// t.Error and fails the request, which the client then sees; t.Fatal
// there would leave the client waiting for a reply.
func (p *replyProbe) run(layer int, ev *bfv.Evaluator, ct *bfv.Ciphertext, apply func(*bfv.Ciphertext) ([]*bfv.Ciphertext, core.OpCounts, error)) ([]*bfv.Ciphertext, core.OpCounts, error) {
	outs, ops, err := apply(ct)
	if err != nil {
		return outs, ops, err
	}
	full := outs
	if p.srv.reads[layer] != nil {
		if len(ct.Value) != 1 {
			err = fmt.Errorf("layer %d: the server read a product layer's upload as %d components, want c0 alone", layer, len(ct.Value))
		} else {
			r := p.client.ctx.RingQ
			a := r.CopyPoly(p.client.symEnc.A())
			r.INTT(a)
			full, _, err = apply(&bfv.Ciphertext{Value: []*ring.Poly{ct.Value[0], a}})
		}
	}
	for g := 0; g < len(outs) && err == nil; g++ {
		err = p.measure(layer, g, ev, full[g], outs[g])
	}
	if err != nil {
		p.t.Error(err)
		return nil, ops, err
	}
	return outs, ops, nil
}

// switchDown returns ct switched down to the reply level.
func (p *replyProbe) switchDown(ev *bfv.Evaluator, ct *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	for d := 0; d < p.srv.replyDrop; d++ {
		var err error
		if ct, err = ev.ModSwitchDown(ct); err != nil {
			return nil, err
		}
	}
	return ct, nil
}

func (p *replyProbe) measure(layer, group int, ev *bfv.Evaluator, full, half *bfv.Ciphertext) error {
	ctx, sk := p.client.ctx, p.client.sk
	small, err := p.switchDown(ev, full)
	if err != nil {
		return err
	}
	if p.noise {
		p.rows = append(p.rows, replyRow{layer, group,
			bfv.NoiseBudgetBits(ctx, sk, full), bfv.NoiseBudgetBits(ctx, sk, small), len(small.Value[0].Coeffs)})
	}
	want, got := p.client.dec.DecryptInts(full), p.client.dec.DecryptInts(small)
	for j := range want {
		if got[j] != want[j] {
			return fmt.Errorf("layer %d group %d slot %d: the switched reply decrypts to %d, the full-size one to %d", layer, group, j, got[j], want[j])
		}
	}
	reads := p.srv.reads[layer]
	if reads == nil {
		return nil
	}
	idx := reads[group]
	sent, err := p.switchDown(ev, half)
	if err != nil {
		return err
	}
	rebuilt := ctx.ProductC1(p.client.symEnc.A(), p.client.kernels[layer][group], p.srv.replyDrop)
	c1 := ctx.RingAtDrop(small.Drop).CopyPoly(rebuilt)
	ctx.RingAtDrop(small.Drop).INTT(c1)
	for i := range small.Value[0].Coeffs {
		if !slices.Equal(sent.Value[0].Coeffs[i], small.Value[0].Coeffs[i]) {
			return fmt.Errorf("layer %d group %d residue %d: the server's c0 differs from the full upload's reply", layer, group, i)
		}
		if !slices.Equal(c1.Coeffs[i], small.Value[1].Coeffs[i]) {
			return fmt.Errorf("layer %d group %d residue %d: the client's rebuilt c1 differs from the full upload's reply", layer, group, i)
		}
	}
	read, err := protocol.UnmarshalBFVReadC0(ctx, protocol.AppendBFVReadC0(nil, sent.Value[0], idx), idx)
	if err != nil {
		return err
	}
	read.Value = append(read.Value, rebuilt)
	n := ctx.Params.N()
	whole, part := p.client.decrypt(small, idx, make([]int64, n)), p.client.decrypt(read, idx, make([]int64, n))
	for _, k := range idx {
		if part[k] != whole[k] {
			return fmt.Errorf("layer %d group %d coefficient %d: the c0-only reply decrypts to %d, the whole one to %d", layer, group, k, part[k], whole[k])
		}
	}
	return nil
}

func (p *replyProbe) ExecConv(layer int, conv *core.Conv2D, ev *bfv.Evaluator, ct *bfv.Ciphertext, slots int) ([]*bfv.Ciphertext, core.OpCounts, error) {
	return p.run(layer, ev, ct, func(ct *bfv.Ciphertext) ([]*bfv.Ciphertext, core.OpCounts, error) {
		return conv.Apply(ev, p.srv.ecd, ct, slots)
	})
}

func (p *replyProbe) ExecFC(layer int, fc *core.FC, ev *bfv.Evaluator, ct *bfv.Ciphertext, slots int) (*bfv.Ciphertext, core.OpCounts, error) {
	outs, ops, err := p.run(layer, ev, ct, func(ct *bfv.Ciphertext) ([]*bfv.Ciphertext, core.OpCounts, error) {
		out, ops, err := fc.Apply(ev, p.srv.ecd, ct, slots)
		return []*bfv.Ciphertext{out}, ops, err
	})
	if err != nil {
		return nil, ops, err
	}
	return outs[0], ops, nil
}

// probeReplies runs requests inferences of a seeded model through the two
// halves with a replyProbe on the server, checks every logit against
// PlainInference and the wire against the plan — the first request's
// with the model exchange — and returns the noise rows of the first
// request.
func probeReplies(t *testing.T, net *Network, seed byte, requests int) []replyRow {
	t.Helper()
	m := SynthesizeWeights(net, 4, [32]byte{seed})
	client, err := NewInferenceClient(net, [32]byte{seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewInferenceServer(m)
	if err != nil {
		t.Fatal(err)
	}
	if want := net.Params.ReplyDrop(); srv.replyDrop != want || client.replyDrop != want {
		t.Fatalf("%s: server switches %d primes away, client expects %d, the rule says %d", net.Name, srv.replyDrop, client.replyDrop, want)
	}
	rc, err := ExecutableRequestCost(net)
	if err != nil {
		t.Fatal(err)
	}
	probe := &replyProbe{t: t, srv: srv, client: client, noise: true}
	sess, err := srv.NewSessionFromFrame(client.keyFrame)
	if err != nil {
		t.Fatal(err)
	}
	sess = sess.WithExecutor(probe)
	clientEnd, serverEnd := protocol.NewPipe()
	defer clientEnd.Close()
	var first []replyRow
	for r := 0; r < requests; r++ {
		img := SynthesizeImage(net, 4, [32]byte{seed + 2, byte(r)})
		want, err := PlainInference(m, img)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := sess.ServeOne(serverEnd)
			if err != nil {
				serverEnd.Close() // a refused frame fails the client's next Recv instead of hanging it
			}
			done <- err
		}()
		got, stats, err := client.Infer(img, clientEnd)
		if err != nil {
			t.Fatalf("%s request %d: %v", net.Name, r, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("%s request %d: server: %v", net.Name, r, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s request %d logit %d: encrypted %d vs plain %d", net.Name, r, i, got[i], want[i])
			}
		}
		plan := rc.WireBytes
		if r == 0 {
			plan += int64(rc.ModelBytes)
		}
		if stats.TotalBytes() != plan {
			t.Fatalf("%s request %d moved %d B, ExecutableRequestCost plans %d B", net.Name, r, stats.TotalBytes(), plan)
		}
		if r == 0 {
			first, probe.noise = probe.rows, false
		}
	}
	return first
}

// oneLayerNet is a single linear layer over a 12×12 image.
func oneLayerNet(name string, l Layer, params bfv.Parameters) *Network {
	return &Network{Name: name, InH: 12, InW: 12, InC: 1, Layers: []Layer{l}, Params: params}
}

// switchLeavesBits is the rule ReplyDrop states, written out again: what
// the switch's own noise, t·‖ε₀+ε₁·s‖∞ at six standard deviations, leaves
// of the first k data primes.
func switchLeavesBits(p bfv.Parameters, k int) float64 {
	bits := 0
	for _, b := range p.QBits[:k] {
		bits += b
	}
	return float64(bits-1-p.TBits) - math.Log2(6*math.Sqrt(float64(p.N()+1)/12))
}

// TestReplySwitchNoise prices the switch every reply goes through, in
// hundredths of a bit of bfv.NoiseBudgetBits, on real layer outputs: conv1
// (its one group), conv2's two tiles and FC of LeNet-Sm at bfv-B on the
// TestCommAccountMatchesWire seeds, a conv layer at bfv-A, the Test
// preset's network, a three-data-prime set whose second prime the floor
// protects (two residues leave) and a one-data-prime set (what was
// computed leaves). Everywhere the level is the stated rule's — the
// deepest that leaves 8 bits under the switch's own noise — and a reply
// that arrives with b bits leaves with no less than the two noises added
// at their worst, −log2(2^−b + 2^−left): one far above the ceiling (every
// reply at bfv-A's 58-bit q₀) comes down to it, one below keeps what it
// had. Every LeNet-Sm layer takes the product packing and hands the
// switch 42–44 bits (conv1 44.11, conv2's tiles 43.39 and 43.67, FC 42.00;
// pinned to within 0.05 bit), which it brings down to its ceiling: every
// reply, conv2's two tiles included, must leave it at least 3 bits above
// the 8-bit floor. On the slot packing conv2 handed the switch 5.98 bits
// and was the request's minimum; conv1 and FC held 8.88 and 8.39.
// Every switched reply decrypts to the slots of the full-size one, and a
// product-packed one's read-coefficient frame to its coefficients at the
// read indices (replyProbe).
func TestReplySwitchNoise(t *testing.T) {
	threePrimes := testNet()
	threePrimes.Name = "TestNet-30-30-30"
	threePrimes.Params = bfv.Parameters{LogN: 11, QBits: []int{30, 30, 30}, PBits: 31, TBits: 18, Sigma: 3.2}
	for _, tc := range []struct {
		net      *Network
		residues int
	}{
		{LeNetSmall(), 1},
		{oneLayerNet("Conv-bfv-A", Layer{Kind: Conv, KH: 3, KW: 3, OutC: 2}, bfv.PresetA()), 1},
		{testNet(), 1},
		{threePrimes, 2},
		{oneLayerNet("FC-one-prime", Layer{Kind: FC, FCOut: 8},
			bfv.Parameters{LogN: 11, QBits: []int{60}, PBits: 61, TBits: 16, Sigma: 3.2}), 1},
	} {
		p := tc.net.Params
		if left := switchLeavesBits(p, tc.residues); tc.residues < len(p.QBits) && left < 8 {
			t.Errorf("%s: the switch leaves %.1f bits at %d residue(s), under the floor", tc.net.Name, left, tc.residues)
		}
		if tc.residues > 1 {
			if left := switchLeavesBits(p, tc.residues-1); left >= 8 {
				t.Errorf("%s: one residue fewer would still leave %.1f bits", tc.net.Name, left)
			}
		}
		rows := probeReplies(t, tc.net, 14, 1)
		for _, r := range rows {
			t.Logf("%s layer %d group %d: %.2f → %.2f bits at %d residue(s)", tc.net.Name, r.layer, r.group, r.before, r.after, r.residues)
			if r.residues != tc.residues {
				t.Errorf("%s layer %d group %d leaves at %d residues, want %d", tc.net.Name, r.layer, r.group, r.residues, tc.residues)
			}
			if tc.residues < len(p.QBits) {
				if bound := -math.Log2(math.Exp2(-r.before) + math.Exp2(-switchLeavesBits(p, tc.residues))); r.after < bound {
					t.Errorf("%s layer %d group %d: %.2f bits left, the rule promises %.2f", tc.net.Name, r.layer, r.group, r.after, bound)
				}
			}
		}
		if tc.net.Name != "LeNetSm" {
			continue
		}
		if len(rows) != 4 {
			t.Fatalf("LeNetSm has %d replies, want 4", len(rows))
		}
		for i, r := range rows {
			if want := [][2]int{{0, 0}, {3, 0}, {3, 1}, {6, 0}}[i]; r.layer != want[0] || r.group != want[1] {
				t.Errorf("LeNetSm reply %d is layer %d group %d, want layer %d group %d", i, r.layer, r.group, want[0], want[1])
			}
			if r.after < 11 {
				t.Errorf("LeNetSm layer %d group %d leaves the switch with %.2f bits, want 3 over the 8-bit floor", r.layer, r.group, r.after)
			}
			if pin := []float64{44.11, 43.39, 43.67, 42.00}[i]; r.before < pin-0.05 {
				t.Errorf("LeNetSm layer %d group %d holds %.2f bits before the switch, pinned %.2f", r.layer, r.group, r.before, pin)
			}
		}
	}
}

// TestSwitchedRepliesDecryptIdentically is the byte identity of the reply
// path over 148 seeded requests (48 of the test network, 50 each of
// LeNet-Sm and DemoNet): every reply of every request, switched, decrypts
// slot for slot to what the executor produced; the c0 the server sends
// is, word for word, the c0 of the full upload's switched output, the
// c1 the client rebuilds its c1, and the c0-only frame decrypts to its
// coefficients at every read index (replyProbe); every inference equals
// PlainInference, and every request moves exactly the planned bytes.
func TestSwitchedRepliesDecryptIdentically(t *testing.T) {
	probeReplies(t, testNet(), 40, 48)
	if testing.Short() {
		return
	}
	probeReplies(t, LeNetSmall(), 50, 50)
	probeReplies(t, DemoNetwork(), 60, 50)
}

// TestClientRejectsReplyAtWrongLevel: a server that stops switching fails
// the request, loudly, with the layer and group in the error.
func TestClientRejectsReplyAtWrongLevel(t *testing.T) {
	net := testNet()
	m := SynthesizeWeights(net, 4, [32]byte{3})
	runner, err := NewRunner(m, [32]byte{5})
	if err != nil {
		t.Fatal(err)
	}
	runner.sess.s.replyDrop = 0
	clientEnd, serverEnd := protocol.NewPipe()
	defer clientEnd.Close()
	_, _, err = runner.Infer(SynthesizeImage(net, 4, [32]byte{4}), clientEnd, serverEnd)
	want := fmt.Sprintf("layer 0 output group 0 arrived at %d residues, the parameter set's replies have 1", len(net.Params.QBits))
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Infer over a server that does not switch: %v; want an error saying %q", err, want)
	}
}

// TestClientRejectsMisframedReply: a product-packed layer's reply that
// is not the read-coefficient frame the layer implies — a full reply, or
// one carrying another read count — fails the request with the layer and
// group in the error, as a slot layer's reply in that frame would.
func TestClientRejectsMisframedReply(t *testing.T) {
	net := testNet()
	m := SynthesizeWeights(net, 4, [32]byte{3})
	for _, tc := range []struct {
		name  string
		reads func(map[int][][]int) map[int][][]int
		want  string
	}{
		{"full reply", func(map[int][][]int) map[int][][]int { return map[int][][]int{} },
			"layer 0 output group 0: protocol: frame tag"},
		{"one read short", func(r map[int][][]int) map[int][][]int {
			r[3] = [][]int{r[3][0], r[3][1][1:]}
			return r
		}, "layer 3 output group 1: protocol: read reply carries"},
	} {
		runner, err := NewRunner(m, [32]byte{5})
		if err != nil {
			t.Fatal(err)
		}
		if groups := len(runner.sess.s.reads[3]); groups != 2 {
			t.Fatalf("TestNet's conv2 replies in %d tiles, want 2", groups)
		}
		runner.sess.s.reads = tc.reads(readSets(runner.sess.s.convs, runner.sess.s.fcs))
		clientEnd, serverEnd := protocol.NewPipe()
		_, _, err = runner.Infer(SynthesizeImage(net, 4, [32]byte{4}), clientEnd, serverEnd)
		clientEnd.Close()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Infer says %v; want an error saying %q", tc.name, err, tc.want)
		}
	}
}

// TestModelExchangeIsChecked: a model frame that disagrees with the
// client's architecture — here one layer more than the network's product
// layers — fails the client's first request, naming the model frame; a
// product layer's upload that is not a seeded frame is refused by the
// server, naming the layer; and a model request anywhere but at the start
// of a request is an upload the server cannot decode.
func TestModelExchangeIsChecked(t *testing.T) {
	net := testNet()
	m := SynthesizeWeights(net, 4, [32]byte{3})
	img := SynthesizeImage(net, 4, [32]byte{4})

	runner, err := NewRunner(m, [32]byte{5})
	if err != nil {
		t.Fatal(err)
	}
	frame := bytes.Clone(runner.sess.s.modelFrame)
	frame[12]++ // the layer count
	runner.sess.s.modelFrame = frame
	clientEnd, serverEnd := protocol.NewPipe()
	_, _, err = runner.Infer(img, clientEnd, serverEnd)
	clientEnd.Close()
	if want := "nn: model frame: protocol: model frame has 4 layers, the network has 3 product layers"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Infer over a server whose model frame has a layer too many: %v; want an error saying %q", err, want)
	}

	srv, err := NewInferenceServer(m)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewInferenceClient(net, [32]byte{6})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.NewSessionFromFrame(client.keyFrame)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := client.ecd.EncodeCoeffs(make([]int64, 16))
	if err != nil {
		t.Fatal(err)
	}
	upload := protocol.MarshalSeededBFV(client.symEnc.EncryptSeeded(pt))
	whole, err := protocol.UnmarshalSeededBFV(client.ctx, upload)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		frames [][]byte
		want   string
	}{
		{"an unseeded upload", [][]byte{protocol.MarshalBFV(whole)}, "layer 0 (conv) decode input"},
		{"a model request after the first upload", [][]byte{upload, protocol.MarshalModelRequest()}, "layer 3 (conv) decode input"},
	} {
		clientEnd, serverEnd := protocol.NewPipe()
		for _, f := range tc.frames {
			if err := clientEnd.Send(f); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan error, 1)
		go func() { _, err := sess.ServeOne(serverEnd); done <- err }()
		var err error
		select {
		case err = <-done:
		case <-time.After(30 * time.Second): // a server that takes the frame waits for one more
			clientEnd.Close()
			err = <-done
		}
		clientEnd.Close()
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "not the expected ciphertext tag") {
			t.Errorf("%s: ServeOne says %v; want an error saying %q and naming the tag", tc.name, err, tc.want)
		}
	}
}
