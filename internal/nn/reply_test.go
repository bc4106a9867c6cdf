package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"choco/internal/bfv"
	"choco/internal/core"
	"choco/internal/protocol"
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
// to the reply level the way ServeOne is about to: it records the budget on
// both sides and fails the test unless the two decrypt to the same slots.
type replyProbe struct {
	t      *testing.T
	srv    *InferenceServer
	client *InferenceClient
	rows   []replyRow
}

func (p *replyProbe) measure(layer, group int, ev *bfv.Evaluator, full *bfv.Ciphertext) {
	p.t.Helper()
	ctx, sk := p.client.ctx, p.client.sk
	small := full
	for d := 0; d < p.srv.replyDrop; d++ {
		var err error
		if small, err = ev.ModSwitchDown(small); err != nil {
			p.t.Fatal(err)
		}
	}
	p.rows = append(p.rows, replyRow{layer, group,
		bfv.NoiseBudgetBits(ctx, sk, full), bfv.NoiseBudgetBits(ctx, sk, small), len(small.Value[0].Coeffs)})
	want, got := p.client.dec.DecryptInts(full), p.client.dec.DecryptInts(small)
	for j := range want {
		if got[j] != want[j] {
			p.t.Fatalf("layer %d group %d slot %d: the switched reply decrypts to %d, the full-size one to %d", layer, group, j, got[j], want[j])
		}
	}
}

func (p *replyProbe) ExecConv(layer int, conv *core.Conv2D, ev *bfv.Evaluator, ct *bfv.Ciphertext, slots int) ([]*bfv.Ciphertext, core.OpCounts, error) {
	outs, ops, err := conv.Apply(ev, p.srv.ecd, ct, slots)
	for g, o := range outs {
		p.measure(layer, g, ev, o)
	}
	return outs, ops, err
}

func (p *replyProbe) ExecFC(layer int, fc *core.FC, ev *bfv.Evaluator, ct *bfv.Ciphertext, slots int) (*bfv.Ciphertext, core.OpCounts, error) {
	out, ops, err := fc.Apply(ev, p.srv.ecd, ct, slots)
	if err == nil {
		p.measure(layer, 0, ev, out)
	}
	return out, ops, err
}

// probeReplies runs requests inferences of a seeded model through the two
// halves with a replyProbe on the server, checks every logit against
// PlainInference and the wire against the plan, and returns the rows of
// the first request.
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
	probe := &replyProbe{t: t, srv: srv, client: client}
	sess := srv.NewSession(client.bundle).WithExecutor(probe)
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
		if stats.TotalBytes() != rc.WireBytes {
			t.Fatalf("%s request %d moved %d B, ExecutableRequestCost plans %d B", net.Name, r, stats.TotalBytes(), rc.WireBytes)
		}
		if r == 0 {
			first = probe.rows
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
// (both groups), conv2 and FC of LeNet-Sm at bfv-B on the
// TestCommAccountMatchesWire seeds, a conv layer at bfv-A, the Test
// preset's network, a three-data-prime set whose second prime the floor
// protects (two residues leave) and a one-data-prime set (what was
// computed leaves). Everywhere the level is the stated rule's — the
// deepest that leaves 8 bits under the switch's own noise — and a reply
// that arrives with b bits leaves with no less than the two noises added
// at their worst, −log2(2^−b + 2^−left): one far above the ceiling (every
// reply at bfv-A's 58-bit q₀) comes down to it, one below keeps what it
// had. At bfv-B, where the replies hold 6 to 8.4 bits under a 10.2-bit
// ceiling, none may lose more than 0.3 bit, and the request's minimum —
// conv2, 5.98 bits — may lose 0.1 and must keep 5.5. What the layers hand
// the switch is pinned too: 7.93, 7.93, 5.98 and 8.39 bits is what they
// held when every baby rotation paid its own mod-down, and rounding once
// per inner sum instead may not cost any of them 0.05 bit (it reads the
// same to the hundredth). Every switched reply decrypts to the slots of
// the full-size one (replyProbe).
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
		min := 0
		for i, r := range rows {
			t.Logf("%s layer %d group %d: %.2f → %.2f bits at %d residue(s)", tc.net.Name, r.layer, r.group, r.before, r.after, r.residues)
			if r.residues != tc.residues {
				t.Errorf("%s layer %d group %d leaves at %d residues, want %d", tc.net.Name, r.layer, r.group, r.residues, tc.residues)
			}
			if tc.residues < len(p.QBits) {
				if bound := -math.Log2(math.Exp2(-r.before) + math.Exp2(-switchLeavesBits(p, tc.residues))); r.after < bound {
					t.Errorf("%s layer %d group %d: %.2f bits left, the rule promises %.2f", tc.net.Name, r.layer, r.group, r.after, bound)
				}
			}
			if r.before < rows[min].before {
				min = i
			}
		}
		if tc.net.Name != "LeNetSm" {
			continue
		}
		if len(rows) != 4 {
			t.Fatalf("LeNetSm has %d replies, want 4", len(rows))
		}
		for i, r := range rows {
			if r.before-r.after > 0.3 {
				t.Errorf("LeNetSm layer %d group %d: the switch costs %.2f bits, limit 0.3", r.layer, r.group, r.before-r.after)
			}
			if pin := []float64{7.93, 7.93, 5.98, 8.39}[i]; r.before < pin-0.05 {
				t.Errorf("LeNetSm layer %d group %d holds %.2f bits before the switch, a mod-down per baby left %.2f", r.layer, r.group, r.before, pin)
			}
		}
		if r := rows[min]; r.layer != 3 || r.before-r.after > 0.1 || r.after < 5.5 {
			t.Errorf("LeNetSm minimum is layer %d: %.2f → %.2f bits; want conv2 (layer 3), ≤ 0.1 lost, ≥ 5.5 left", r.layer, r.before, r.after)
		}
	}
}

// TestSwitchedRepliesDecryptIdentically is the decrypt-identity of the
// reply path over 56 seeded requests: every reply of every request,
// switched, decrypts slot for slot to what the executor produced
// (replyProbe), every inference equals PlainInference, and every request
// moves exactly the planned bytes.
func TestSwitchedRepliesDecryptIdentically(t *testing.T) {
	probeReplies(t, testNet(), 40, 48)
	if testing.Short() {
		return
	}
	probeReplies(t, LeNetSmall(), 50, 4)
	probeReplies(t, DemoNetwork(), 60, 4)
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
