package nn

import (
	"math"
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
// parameters end-to-end.
func testNet() *Network {
	return &Network{
		Name: "TestNet", InH: 12, InW: 12, InC: 1,
		Layers: []Layer{
			{Kind: Conv, KH: 3, KW: 3, OutC: 2},
			{Kind: Act, RequantShift: 7},
			{Kind: Pool},
			{Kind: Conv, KH: 3, KW: 3, OutC: 4},
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
	if stats.Server.Rotations == 0 || stats.Server.PlainMults == 0 {
		t.Error("server op counts missing")
	}
	if stats.Server.CtMults != 0 {
		t.Error("DNN inference must not use ciphertext multiplies")
	}
	t.Logf("client-aided stats: %+v", stats)
}

// TestLeNetSmServerOpCounts pins the logical work of one LeNet-Sm
// request at bfv-B — the counts the benchmark reports as
// core.*_per_request: 57 rotations, 166 plaintext multiplies, 162
// additions (24 + 0, 24 + 3 and 3 + 3 key switches; 2·25, 4·25 and 16
// multiplies; one add less than multiplies per reply ciphertext). They
// are a property of the layer shapes and the packing (no weight is zero,
// so no diagonal is skipped) and must not move when the engine underneath
// changes schedule.
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
		if wantOps := (core.OpCounts{Rotations: 57, PlainMults: 166, Adds: 162}); stats.Server != wantOps {
			t.Errorf("%s: server ops %+v, want %+v", label, stats.Server, wantOps)
		}
	}
	if rc, err := ExecutableRequestCost(net); err != nil || rc.Server != (core.OpCounts{Rotations: 57, PlainMults: 166, Adds: 162}) {
		t.Errorf("the operators' plans predict %+v (err %v), not the counts executed", rc.Server, err)
	}
}

// TestCommAccountMatchesWire holds the executable's traffic to its
// operators' own plans and sets the analytic model beside it. One
// inference of each executable network uploads one seeded ciphertext per
// linear layer and downloads one ciphertext per conv output group plus
// one per FC layer, each at the one residue bfv-B's replies are switched
// down to; the client's byte count is the transport's, and is the
// wire_bytes_per_request the end-to-end benchmark reports. CommPlan —
// Table 5's model, which has the server condense every layer's outputs
// densely (3 downloads where LeNet-Sm's conv1, one channel per row, needs
// 2 of its own) but send them full-size — is now above it.
func TestCommAccountMatchesWire(t *testing.T) {
	for _, net := range []*Network{LeNetSmall(), DemoNetwork()} {
		m := SynthesizeWeights(net, 4, [32]byte{14})
		runner, err := NewRunner(m, [32]byte{15})
		if err != nil {
			t.Fatal(err)
		}
		clientEnd, serverEnd := protocol.NewPipe()
		_, stats, err := runner.Infer(SynthesizeImage(net, 4, [32]byte{16}), clientEnd, serverEnd)
		clientEnd.Close()
		if err != nil {
			t.Fatal(err)
		}
		down := len(runner.client.fcs)
		for _, conv := range runner.client.convs {
			down += conv.Groups()
		}
		if up := len(runner.client.convs) + len(runner.client.fcs); stats.UpCiphertexts != up || stats.DownCiphertexts != down {
			t.Errorf("%s: %d up / %d down ciphertexts, the operators plan %d / %d", net.Name, stats.UpCiphertexts, stats.DownCiphertexts, up, down)
		}
		if wire := clientEnd.SentBytes() + serverEnd.SentBytes(); stats.TotalBytes() != wire || wire != 258340 {
			t.Errorf("%s: the client counts %d B, the pipe carried %d B, want 258340 B (3 seeded uploads of two packed 36-bit rows + 4 one-residue replies)", net.Name, stats.TotalBytes(), wire)
		}
		// chocobench setup-costs prints this plan; it must be the wire's.
		rc, err := ExecutableRequestCost(net)
		if err != nil {
			t.Fatal(err)
		}
		if rc.UpCiphertexts != stats.UpCiphertexts || rc.DownCiphertexts != stats.DownCiphertexts || rc.WireBytes != stats.TotalBytes() {
			t.Errorf("%s: ExecutableRequestCost plans %+v, the inference moved %+v", net.Name, rc, stats)
		}
		model, err := net.CommBytes()
		if err != nil {
			t.Fatal(err)
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

// TestGaloisKeysGeneratedAreKeysUsed holds every conv and FC layer of
// the two executable networks to "keys generated = keys used": Apply
// succeeds under exactly RotationSteps() keys, each step is its own
// Galois element, and with any one of them removed Apply names the
// missing key — so no key a client generates, uploads and the server
// keeps resident is dead weight.
func TestGaloisKeysGeneratedAreKeysUsed(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, net := range []*Network{LeNetSmall(), DemoNetwork()} {
		ctx, err := bfv.NewContext(net.Params)
		if err != nil {
			t.Fatal(err)
		}
		slots := ctx.Params.Slots()
		_, convs, fcs, err := rotationStepsFor(net, SynthesizeWeights(net, 4, [32]byte{11}), slots/2)
		if err != nil {
			t.Fatal(err)
		}
		kg := bfv.NewKeyGenerator(ctx, [32]byte{12})
		sk := kg.GenSecretKey()
		ecd := bfv.NewEncoder(ctx)
		vals := make([]int64, slots)
		for i := range vals {
			vals[i] = int64(i%15) - 7
		}
		pt, err := ecd.EncodeInts(vals)
		if err != nil {
			t.Fatal(err)
		}
		ct := bfv.NewSymmetricEncryptor(ctx, sk, [32]byte{13}).EncryptSeeded(pt).Expand(ctx)

		for i := range net.Layers {
			var l struct {
				steps []int
				apply func(ev *bfv.Evaluator) error
			}
			if conv, ok := convs[i]; ok {
				l.steps = conv.RotationSteps()
				l.apply = func(ev *bfv.Evaluator) error {
					_, _, err := conv.Apply(ev, ecd, ct, slots)
					return err
				}
			} else if fc, ok := fcs[i]; ok {
				l.steps = fc.RotationSteps()
				l.apply = func(ev *bfv.Evaluator) error {
					_, _, err := fc.Apply(ev, ecd, ct, slots)
					return err
				}
			} else {
				continue
			}
			keys := kg.GenRotationKeys(sk, l.steps...)
			if len(keys) != len(l.steps)+1 { // + the row-swap key GenRotationKeys always adds
				t.Errorf("%s layer %d: %d steps share %d Galois elements", net.Name, i, len(l.steps), len(keys)-1)
			}
			if err := l.apply(bfv.NewEvaluator(ctx, nil, keys)); err != nil {
				t.Fatalf("%s layer %d: Apply with exactly RotationSteps() keys: %v", net.Name, i, err)
			}
			for _, s := range l.steps {
				less := make(map[uint64]*bfv.GaloisKey, len(keys))
				for g, k := range keys {
					if g != ctx.RingQ.GaloisElementForRotation(s) {
						less[g] = k
					}
				}
				if err := l.apply(bfv.NewEvaluator(ctx, nil, less)); err == nil || !strings.Contains(err.Error(), "missing Galois key") {
					t.Errorf("%s layer %d: Apply without the key for step %d: err = %v, want a missing Galois key", net.Name, i, s, err)
				}
			}
		}
	}
}

// TestLeNetSmKeyFootprint pins the Galois key count of a LeNet-Sm
// session — what the client generates and uploads once and the server
// keeps resident: the kernel offsets of both convolutions, conv2's three
// block shifts, and FC's 3 + 3 steps over its 16 extended diagonals (it
// was 76 keys, 30.4 MB, while FC walked the 512 square ones).
func TestLeNetSmKeyFootprint(t *testing.T) {
	keys, bundleBytes, err := EvaluationKeyFootprint(LeNetSmall())
	if err != nil {
		t.Fatal(err)
	}
	if keys != 50 || bundleBytes != 11461648 {
		t.Errorf("LeNet-Sm footprint: %d Galois keys, %d B bundle; want 50 keys, 11461648 B", keys, bundleBytes)
	}
	client, err := NewInferenceClient(LeNetSmall(), [32]byte{9})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(client.bundle.Galois); got != keys {
		t.Errorf("the client generated %d Galois keys, the footprint says %d", got, keys)
	}
	if got := int64(len(protocol.MarshalKeyBundle(client.bundle))); got != bundleBytes {
		t.Errorf("the marshalled bundle is %d B, the footprint says %d", got, bundleBytes)
	}
}
