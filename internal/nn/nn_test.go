package nn

import (
	"math"
	"slices"
	"strings"
	"testing"

	"choco/internal/bfv"
	"choco/internal/core"
	"choco/internal/protocol"
)

func TestTable5MACs(t *testing.T) {
	// LeNetLg and VGG16 shapes reproduce the paper's MAC counts
	// exactly; LeNetSm and SqueezeNet (whose exact public variants the
	// paper doesn't fully specify) land within tolerance.
	cases := []struct {
		net    *Network
		relTol float64
	}{
		{LeNetLarge(), 0.001},
		{VGG16(), 0.001},
		{LeNetSmall(), 0.35},
		{SqueezeNet(), 0.35},
	}
	for _, c := range cases {
		gotM := float64(c.net.MACs()) / 1e6
		if math.Abs(gotM-c.net.PaperMACsM) > c.relTol*c.net.PaperMACsM {
			t.Errorf("%s: %.3fM MACs, paper %.2fM (tol %.0f%%)",
				c.net.Name, gotM, c.net.PaperMACsM, c.relTol*100)
		}
	}
}

func TestTable5LayerCounts(t *testing.T) {
	want := map[string][4]int{ // conv, fc, act, pool
		"LeNetSm": {2, 1, 2, 2},
		"LeNetLg": {2, 2, 3, 2},
		"SqzNet":  {10, 0, 10, 3},
		"VGG16":   {13, 2, 14, 5},
	}
	for _, n := range Zoo() {
		conv, fc, act, pool := n.LinearLayerCount()
		w := want[n.Name]
		if conv != w[0] || fc != w[1] || act != w[2] || pool != w[3] {
			t.Errorf("%s: layers (%d,%d,%d,%d), want %v", n.Name, conv, fc, act, pool, w)
		}
	}
}

func TestModelSizes(t *testing.T) {
	// Table 5's 4-bit model sizes, within a factor accounting for
	// biases/metadata the paper includes.
	for _, n := range Zoo() {
		gotMB := float64(n.ModelSizeBytes(4)) / 1e6
		if gotMB > 2.5*n.PaperModelMB4b+0.05 || gotMB < n.PaperModelMB4b/8 {
			t.Errorf("%s: 4-bit model %.3f MB vs paper %.2f MB", n.Name, gotMB, n.PaperModelMB4b)
		}
	}
}

func TestCommPlanShapes(t *testing.T) {
	for _, n := range Zoo() {
		plan, err := n.CommPlan()
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		conv, fc, _, _ := n.LinearLayerCount()
		if len(plan) != conv+fc {
			t.Errorf("%s: plan has %d entries, want %d", n.Name, len(plan), conv+fc)
		}
		for _, lc := range plan {
			if lc.UpCts <= 0 || lc.DownCts <= 0 {
				t.Errorf("%s layer %d: nonpositive ciphertext counts %+v", n.Name, lc.Index, lc)
			}
		}
		bytes, err := n.CommBytes()
		if err != nil {
			t.Fatal(err)
		}
		gotMB := float64(bytes) / 1e6
		// The communication column of Table 5, within 2.5× in either
		// direction (packing details differ).
		if gotMB > 3.0*n.PaperCommMB || gotMB < n.PaperCommMB/3.0 {
			t.Errorf("%s: communication %.2f MB vs paper %.2f MB", n.Name, gotMB, n.PaperCommMB)
		}
		t.Logf("%s: %.2f MB (paper %.2f MB)", n.Name, gotMB, n.PaperCommMB)
	}
}

func TestEncDecCounts(t *testing.T) {
	for _, n := range Zoo() {
		enc, dec, err := n.EncDecCounts()
		if err != nil {
			t.Fatal(err)
		}
		if enc <= 0 || dec <= 0 {
			t.Errorf("%s: enc=%d dec=%d", n.Name, enc, dec)
		}
		// Client HE op count scales with network complexity (§2.2).
		if n.Name == "VGG16" {
			se, sd, _ := LeNetSmall().EncDecCounts()
			if enc+dec <= se+sd {
				t.Error("VGG16 should require more client HE ops than LeNetSm")
			}
		}
	}
}

func TestQuantizeSymmetric(t *testing.T) {
	w := []float64{-1.0, 0.5, 0.25, 0}
	q, scale := QuantizeSymmetric(w, 4)
	if q[0] != -7 {
		t.Errorf("max magnitude should map to -7, got %d", q[0])
	}
	back := Dequantize(q, scale)
	for i := range w {
		if math.Abs(back[i]-w[i]) > 1.0/scale {
			t.Errorf("weight %d: %v -> %v", i, w[i], back[i])
		}
	}
	q0, s0 := QuantizeSymmetric([]float64{0, 0}, 4)
	if q0[0] != 0 || q0[1] != 0 || s0 != 1 {
		t.Error("all-zero quantization broken")
	}
}

// testNet is a small MNIST-like network that fits the fast test
// parameters end-to-end. Like LeNet-Sm, every layer takes the product
// packing, conv2 (4 channels of 10×10 padded windows, 400 of the Test
// preset's 2 048 coefficients an output) as two tiles.
func testNet() *Network {
	return &Network{
		Name: "TestNet", InH: 12, InW: 12, InC: 1,
		Layers: []Layer{
			{Kind: Conv, KH: 3, KW: 3, OutC: 4},
			{Kind: Act, RequantShift: 7},
			{Kind: Pool},
			{Kind: Conv, KH: 5, KW: 5, OutC: 6},
			{Kind: Act, RequantShift: 7},
			{Kind: Pool},
			{Kind: FC, FCOut: 10},
		},
		Params: bfv.PresetTest(),
	}
}

func TestPlainInferenceDeterministic(t *testing.T) {
	net := testNet()
	m := SynthesizeWeights(net, 4, [32]byte{1})
	img := SynthesizeImage(net, 4, [32]byte{2})
	a, err := PlainInference(m, img)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlainInference(m, SynthesizeImage(net, 4, [32]byte{2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 10 {
		t.Fatalf("logits length %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("plain inference not deterministic")
		}
	}
}

func TestClientAidedInferenceMatchesPlain(t *testing.T) {
	net := testNet()
	m := SynthesizeWeights(net, 4, [32]byte{3})
	img := SynthesizeImage(net, 4, [32]byte{4})

	want, err := PlainInference(m, img)
	if err != nil {
		t.Fatal(err)
	}

	runner, err := NewRunner(m, [32]byte{5})
	if err != nil {
		t.Fatal(err)
	}
	clientEnd, serverEnd := protocol.NewPipe()
	defer clientEnd.Close()
	got, stats, err := runner.Infer(img, clientEnd, serverEnd)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d: encrypted %d vs plain %d", i, got[i], want[i])
		}
	}
	// Protocol accounting: 3 linear layers → ≥3 encryptions and ≥3
	// decryptions; traffic matches the pipe's own counters.
	if stats.Encryptions < 3 || stats.Decryptions < 3 {
		t.Errorf("stats %+v", stats)
	}
	if stats.UpBytes != clientEnd.SentBytes() {
		t.Errorf("up bytes %d vs pipe %d", stats.UpBytes, clientEnd.SentBytes())
	}
	if stats.DownBytes != serverEnd.SentBytes() {
		t.Errorf("down bytes %d vs pipe %d", stats.DownBytes, serverEnd.SentBytes())
	}
	if stats.Server.PlainMults == 0 || stats.Server.Rotations != 0 {
		t.Errorf("server ops %+v; every layer takes the product packing: plaintext products, no rotation", stats.Server)
	}
	if stats.Server.CtMults != 0 {
		t.Error("DNN inference must not use ciphertext multiplies")
	}
	t.Logf("client-aided stats: %+v", stats)
}

// TestLeNetSmServerOpCounts pins the logical work of one LeNet-Sm
// request at bfv-B — the counts the benchmark reports as
// core.*_per_request: 0 rotations, 4 plaintext multiplies, 0 additions
// (conv1 and FC one product each, conv2 one per tile of three outputs;
// one add less than multiplies per reply ciphertext). They were 27, 102
// and 99 while conv2 ran on slots (24 + 3 key switches, 4·25 multiplies),
// and 57, 141 and 138 while conv1 and FC did too. They are a property of
// the layer shapes and the packing and must not move when the engine
// underneath changes schedule.
func TestLeNetSmServerOpCounts(t *testing.T) {
	net := LeNetSmall()
	m := SynthesizeWeights(net, 4, [32]byte{6})
	noZeros := func(ws []int64) {
		for i, w := range ws {
			if w == 0 {
				ws[i] = 1
			}
		}
	}
	for _, layer := range m.ConvW {
		for _, out := range layer {
			for _, in := range out {
				noZeros(in)
			}
		}
	}
	for _, layer := range m.FCW {
		for _, row := range layer {
			noZeros(row)
		}
	}
	img := SynthesizeImage(net, 4, [32]byte{7})
	want, err := PlainInference(m, img)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewRunner(m, [32]byte{8})
	if err != nil {
		t.Fatal(err)
	}
	clientEnd, serverEnd := protocol.NewPipe()
	defer clientEnd.Close()
	for _, label := range []string{"cold", "warm"} {
		got, stats, err := runner.Infer(img, clientEnd, serverEnd)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: logit %d: encrypted %d vs plain %d", label, i, got[i], want[i])
			}
		}
		if wantOps := (core.OpCounts{PlainMults: 4}); stats.Server != wantOps {
			t.Errorf("%s: server ops %+v, want %+v", label, stats.Server, wantOps)
		}
	}
	if rc, err := ExecutableRequestCost(net); err != nil || rc.Server != (core.OpCounts{PlainMults: 4}) {
		t.Errorf("the operators' plans predict %+v (err %v), not the counts executed", rc.Server, err)
	}
}

// TestCommAccountMatchesWire holds the executable's traffic to its
// operators' own plans and sets the analytic model beside it. One
// inference of each executable network uploads one rounded c0 per linear
// layer and downloads one reply per conv tile plus one per FC layer, each
// at the one residue bfv-B's replies are switched down to and carrying c0
// rounded to 31 bits at the coefficients the client reads and nothing
// else (the client rebuilds c1): 28 B of header and length prefix, then
// the fields in whole words — conv1's 3 136 reads 12 180 B, a conv2
// tile's 588 2 308 B (DemoNet's last tile, 392 reads, 1 548 B), the FC's
// 10 reads 68 B. An upload carries every coefficient at its layer's width
// and no seed: 19 484 B for the convolutions' 38 bits, 20 508 B for the
// FC's 40. LeNet-Sm moves 76 340 B a request (130 340 B while uploads
// and replies carried full-width residues and the upload its seed,
// 204 068 B while each reply also carried c1 whole, 221 448 B while
// conv2 ran on slots and every reply carried c0 whole); DemoNet, whose
// conv2 is three tiles, 77 888 B. The client's first request also sends
// the 12-byte model
// request and receives the model frame, LeNet-Sm's 1 892 B with its
// length prefix (3 640 4-bit weights), DemoNet's 2 484 B (4 820): both
// counted in that request's stats and by the pipe, and priced as
// ModelBytes. The client's byte count is the transport's, and is the
// wire_bytes_per_request the end-to-end benchmark reports (its warm-up
// request carries the model exchange). CommPlan — Table 5's model, which
// has the server condense every layer's outputs densely but send them
// full-size — is above it, and condenses each layer into one reply where
// the operators send one per tile.
func TestCommAccountMatchesWire(t *testing.T) {
	for _, tc := range []struct {
		net     *Network
		wire    int64
		model   int
		replies []int
	}{
		{LeNetSmall(), 76340, 1904, []int{12180, 2308, 2308, 68}},
		{DemoNetwork(), 77888, 2496, []int{12180, 2308, 2308, 1548, 68}},
	} {
		net := tc.net
		m := SynthesizeWeights(net, 4, [32]byte{14})
		runner, err := NewRunner(m, [32]byte{15})
		if err != nil {
			t.Fatal(err)
		}
		// chocobench setup-costs prints this plan; it must be the wire's.
		rc, err := ExecutableRequestCost(net)
		if err != nil {
			t.Fatal(err)
		}
		clientEnd, serverEnd := protocol.NewPipe()
		img := SynthesizeImage(net, 4, [32]byte{16})
		_, first, err := runner.Infer(img, clientEnd, serverEnd)
		if err != nil {
			t.Fatal(err)
		}
		if up, down := clientEnd.SentBytes(), serverEnd.SentBytes(); first.UpBytes != up || first.DownBytes != down ||
			rc.ModelBytes != tc.model || up+down != rc.WireBytes+int64(rc.ModelBytes) ||
			up != int64(sumInts(rc.UploadBytes)+12) {
			t.Errorf("%s: the first request counts %d B up / %d B down, the pipe carried %d / %d, want the request's %d B, a 12-byte model request and a %d-byte model frame (ModelBytes %d)",
				net.Name, first.UpBytes, first.DownBytes, up, down, rc.WireBytes, tc.model-12, rc.ModelBytes)
		}
		up0, down0 := clientEnd.SentBytes(), serverEnd.SentBytes()
		_, stats, err := runner.Infer(img, clientEnd, serverEnd)
		clientEnd.Close()
		if err != nil {
			t.Fatal(err)
		}
		down, tiles := len(runner.client.fcs), 0
		for _, conv := range runner.client.convs {
			down += conv.Groups()
			tiles += conv.Groups() - 1
		}
		if up := len(runner.client.convs) + len(runner.client.fcs); stats.UpCiphertexts != up || stats.DownCiphertexts != down {
			t.Errorf("%s: %d up / %d down ciphertexts, the operators plan %d / %d", net.Name, stats.UpCiphertexts, stats.DownCiphertexts, up, down)
		}
		if wire := clientEnd.SentBytes() - up0 + serverEnd.SentBytes() - down0; stats.TotalBytes() != wire || wire != tc.wire {
			t.Errorf("%s: the client counts %d B, the pipe carried %d B, want %d B (3 rounded uploads + one-residue replies of the read c0, rounded)", net.Name, stats.TotalBytes(), wire, tc.wire)
		}
		if rc.UpCiphertexts != stats.UpCiphertexts || rc.DownCiphertexts != stats.DownCiphertexts || rc.WireBytes != stats.TotalBytes() || !slices.Equal(rc.ReplyBytes, tc.replies) {
			t.Errorf("%s: ExecutableRequestCost plans %+v (replies %v B, want %v), the inference moved %+v", net.Name, rc, rc.ReplyBytes, tc.replies, stats)
		}
		model, err := net.CommBytes()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := net.CommPlan()
		if err != nil {
			t.Fatal(err)
		}
		condensed := 0
		for _, l := range plan {
			condensed += l.DownCts
		}
		if rc.DownCiphertexts != condensed+tiles {
			t.Errorf("%s: the operators reply with %d ciphertexts, the model condenses to %d and the conv tiles add %d", net.Name, rc.DownCiphertexts, condensed, tiles)
		}
		t.Logf("%s: executable %d B (%d down), CommPlan %d B", net.Name, stats.TotalBytes(), stats.DownCiphertexts, model)
		if model != 589920 || model <= stats.TotalBytes() {
			t.Errorf("%s: CommPlan says %d B, want 589920 B and above the executable's %d B", net.Name, model, stats.TotalBytes())
		}
	}
}

func TestActivationCountAndShapeK(t *testing.T) {
	n := LeNetLarge()
	if n.ActivationCount() <= 0 {
		t.Error("activation count")
	}
	if n.HEShapeK() != 3 {
		t.Errorf("preset B shape k = %d, want 3", n.HEShapeK())
	}
}

// TestLeNetSmKeyFootprint pins the Galois key count of a LeNet-Sm
// session — what the client generates and uploads once and the server
// keeps resident: none, since every layer takes the product packing (it
// was 27 keys, 3 089 232 B, while conv2's 24 kernel offsets and three
// block shifts rode along; 50 keys, 5 657 964 B, while conv1's offsets,
// FC's steps and the row-swap key did too) — and the bytes of the bundle,
// the public key alone (the benchmark's replay encrypts under it), held
// to the frame the client really sends.
func TestLeNetSmKeyFootprint(t *testing.T) {
	keys, bundleBytes, err := EvaluationKeyFootprint(LeNetSmall())
	if err != nil {
		t.Fatal(err)
	}
	if keys != 0 || bundleBytes != 73764 {
		t.Errorf("LeNet-Sm footprint: %d Galois keys, %d B bundle; want 0 keys, 73764 B", keys, bundleBytes)
	}
	client, err := NewInferenceClient(LeNetSmall(), [32]byte{9})
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(len(client.keyFrame)); got != bundleBytes {
		t.Errorf("the client's key frame is %d B, the footprint says %d", got, bundleBytes)
	}
	kb, err := protocol.UnmarshalKeyBundle(client.ctx, client.keyFrame)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(kb.Galois); got != keys || kb.Relin != nil || kb.PK == nil {
		t.Errorf("the client sends %d Galois keys (relinearization key %v, public key %v), the footprint says %d, none and one", got, kb.Relin != nil, kb.PK != nil, keys)
	}
}

// TestModeledKeyFootprints pins the Galois key count and bundle bytes of
// the networks no product packing lays out, which EvaluationKeyFootprint
// prices on the slot-packing step model (slotSteps) and the FC steps
// clamped to one row: what SetupCosts prints as 7.4, 8.5 and 42.5 MB.
// The split client and server serve the product packing only: they
// refuse a square FC layer and one whose Out·In coefficients exceed N,
// naming the layer, its shape and N, as they refuse a convolution too
// wide for a polynomial.
func TestModeledKeyFootprints(t *testing.T) {
	fcNet := func(name string, inH, inW, inC, out int) *Network {
		return &Network{Name: name, InH: inH, InW: inW, InC: inC, Layers: []Layer{{Kind: FC, FCOut: out}}, Params: bfv.PresetB()}
	}
	for _, tc := range []struct {
		net     *Network
		keys    int
		bytes   int64
		refused string
	}{
		{LeNetLarge(), 66, 7444908, ""},
		{SqueezeNet(), 23, 8482368, ""},
		{VGG16(), 118, 42536828, ""},
		{fcNet("Square", 4, 4, 1, 16), 6, 743868, "nn: layer 0: an FC layer of 16×16 takes no product packing at N = 4096"},
		{fcNet("TooWide", 64, 64, 4, 10), 6, 743868, "nn: layer 0: an FC layer of 16384×10 takes no product packing at N = 4096"},
	} {
		keys, bytes, err := EvaluationKeyFootprint(tc.net)
		if err != nil {
			t.Fatalf("%s: %v", tc.net.Name, err)
		}
		if keys != tc.keys || bytes != tc.bytes {
			t.Errorf("%s footprint: %d Galois keys, %d B bundle; want %d keys, %d B", tc.net.Name, keys, bytes, tc.keys, tc.bytes)
		}
		if tc.refused == "" {
			continue
		}
		if _, err := NewInferenceClient(tc.net, [32]byte{17}); err == nil || !strings.Contains(err.Error(), tc.refused) {
			t.Errorf("%s: NewInferenceClient says %v; want an error saying %q", tc.net.Name, err, tc.refused)
		}
		if _, err := NewInferenceServer(SynthesizeWeights(tc.net, 4, [32]byte{18})); err == nil || !strings.Contains(err.Error(), tc.refused) {
			t.Errorf("%s: NewInferenceServer says %v; want an error saying %q", tc.net.Name, err, tc.refused)
		}
	}
}

func sumInts(v []int) int {
	total := 0
	for _, x := range v {
		total += x
	}
	return total
}
