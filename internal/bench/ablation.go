package bench

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"choco/internal/bfv"
	"choco/internal/core"
	"choco/internal/nn"
	"choco/internal/params"
	"choco/internal/rotred"
	"choco/internal/sampling"
)

// The ablation studies quantify DESIGN.md's called-out design choices
// on the live implementation: what rotational redundancy buys over
// masked permutation, what BSGS buys over the naive diagonal method,
// and what CHOCO's parameter minimization buys over SEAL defaults.

// AblationRotRed measures the windowed-rotation fast path against the
// masking baseline: server wall time, operation counts, and noise.
func AblationRotRed() (string, error) {
	params := bfv.Parameters{LogN: 12, QBits: []int{36, 36}, PBits: 37, TBits: 18, Sigma: 3.2}
	ctx, err := bfv.NewContext(params)
	if err != nil {
		return "", err
	}
	layout, err := rotred.NewLayout(196, 14, 8, ctx.Params.N()/2)
	if err != nil {
		return "", err
	}
	kg := bfv.NewKeyGenerator(ctx, [32]byte{8})
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	relin := kg.GenRelinearizationKey(sk)
	galois := kg.GenRotationKeys(sk, layout.RequiredRotationKeys(14)...)
	enc := bfv.NewEncryptor(ctx, pk, [32]byte{9})
	ecd := bfv.NewEncoder(ctx)
	ev := bfv.NewEvaluator(ctx, relin, galois)

	src := sampling.NewSource([32]byte{10}, "ablation")
	chans := make([][]uint64, 8)
	for c := range chans {
		chans[c] = make([]uint64, 196)
		for i := range chans[c] {
			chans[c][i] = uint64(src.Intn(16))
		}
	}
	packed, err := layout.Pack(chans, ctx.Params.Slots())
	if err != nil {
		return "", err
	}
	ct, err := enc.EncryptUints(packed)
	if err != nil {
		return "", err
	}

	const steps = 7
	start := time.Now()
	fast, err := layout.WindowedRotate(ev, ct, steps)
	if err != nil {
		return "", err
	}
	fastTime := time.Since(start)

	start = time.Now()
	slow, err := layout.MaskedWindowedRotate(ev, ecd, ct, steps, ctx.Params.Slots())
	if err != nil {
		return "", err
	}
	slowTime := time.Since(start)

	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: rotational redundancy vs masked permutation (N=4096, 8 channels)\n")
	fmt.Fprintf(&b, "%-22s %12s %10s %12s\n", "path", "server time", "HE ops", "noise budget")
	fmt.Fprintf(&b, "%-22s %12v %10s %12d\n", "rotational redundancy", fastTime, "1 rot",
		bfv.NoiseBudget(ctx, sk, fast))
	fmt.Fprintf(&b, "%-22s %12v %10s %12d\n", "masked permutation", slowTime, "2 rot+2 mul",
		bfv.NoiseBudget(ctx, sk, slow))
	fmt.Fprintf(&b, "space cost of redundancy: utilization %.0f%% of slots\n", layout.Utilization()*100)
	return b.String(), nil
}

// AblationBSGS measures the baby-step/giant-step FC evaluation against
// the naive diagonal method.
func AblationBSGS() (string, error) {
	p := bfv.PresetTest()
	ctx, err := bfv.NewContext(p)
	if err != nil {
		return "", err
	}
	const in, out = 64, 64
	src := sampling.NewSource([32]byte{11}, "bsgs")
	w := make([][]int64, out)
	for o := range w {
		w[o] = make([]int64, in)
		for i := range w[o] {
			w[o][i] = int64(src.Intn(15)) - 7
		}
	}
	fc, err := core.NewFC(in, out, w, ctx.Params.N()/2)
	if err != nil {
		return "", err
	}
	kg := bfv.NewKeyGenerator(ctx, [32]byte{12})
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	relin := kg.GenRelinearizationKey(sk)
	allSteps := append(fc.RotationSteps(), fc.NaiveRotationSteps()...)
	galois := kg.GenRotationKeys(sk, allSteps...)
	enc := bfv.NewEncryptor(ctx, pk, [32]byte{13})
	ecd := bfv.NewEncoder(ctx)
	ev := bfv.NewEvaluator(ctx, relin, galois)
	dec := bfv.NewDecryptor(ctx, sk)

	x := make([]int64, in)
	for i := range x {
		x[i] = int64(src.Intn(31)) - 15
	}
	packed, err := fc.PackInput(x, ctx.Params.Slots())
	if err != nil {
		return "", err
	}
	ct, err := enc.EncryptInts(packed)
	if err != nil {
		return "", err
	}

	start := time.Now()
	bsgsOut, bsgsOps, err := fc.Apply(ev, ecd, ct, ctx.Params.Slots())
	if err != nil {
		return "", err
	}
	bsgsTime := time.Since(start)

	start = time.Now()
	naiveOut, naiveOps, err := fc.ApplyNaive(ev, ecd, ct, ctx.Params.Slots())
	if err != nil {
		return "", err
	}
	naiveTime := time.Since(start)

	// Both must produce the exact matrix-vector product.
	want := core.PlainFC(w, x)
	for i, wv := range want {
		if g := fc.ExtractOutput(dec.DecryptInts(bsgsOut), ctx.T.Value)[i]; g != wv {
			return "", fmt.Errorf("bench: BSGS output %d = %d, want %d", i, g, wv)
		}
		if g := fc.ExtractOutput(dec.DecryptInts(naiveOut), ctx.T.Value)[i]; g != wv {
			return "", fmt.Errorf("bench: naive output %d = %d, want %d", i, g, wv)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: BSGS vs naive diagonal matrix-vector (64×64, %d diagonals)\n", fc.Po)
	fmt.Fprintf(&b, "%-10s %12s %10s %10s\n", "method", "server time", "rotations", "plainmuls")
	fmt.Fprintf(&b, "%-10s %12v %10d %10d\n", "BSGS", bsgsTime, bsgsOps.Rotations, bsgsOps.PlainMults)
	fmt.Fprintf(&b, "%-10s %12v %10d %10d\n", "naive", naiveTime, naiveOps.Rotations, naiveOps.PlainMults)
	fmt.Fprintf(&b, "rotation reduction: %d → %d (theory: %d → %d)\n",
		naiveOps.Rotations, bsgsOps.Rotations,
		core.DiagonalRotations(fc.Po), core.BSGSRotations(fc.Po))
	return b.String(), nil
}

// AblationPackedVsBatched reproduces §2.1's packing dichotomy on live
// HE: batching (one ciphertext per vector element, every slot a
// different input) maximizes throughput but is hopeless for one input;
// CHOCO's packed layout (whole input per ciphertext) optimizes latency.
// Both paths are checked against core.PlainFC, every batch item included.
func AblationPackedVsBatched() (string, error) {
	p := bfv.PresetTest()
	ctx, err := bfv.NewContext(p)
	if err != nil {
		return "", err
	}
	const in, out, batchSize = 32, 8, 64
	src := sampling.NewSource([32]byte{14}, "packed-vs-batched")
	w := make([][]int64, out)
	for o := range w {
		w[o] = make([]int64, in)
		for i := range w[o] {
			w[o][i] = int64(src.Intn(15)) - 7
		}
	}
	kg := bfv.NewKeyGenerator(ctx, [32]byte{15})
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	relin := kg.GenRelinearizationKey(sk)
	fc, err := core.NewFC(in, out, w, ctx.Params.N()/2)
	if err != nil {
		return "", err
	}
	galois := kg.GenRotationKeys(sk, fc.RotationSteps()...)
	enc := bfv.NewEncryptor(ctx, pk, [32]byte{16})
	ecd := bfv.NewEncoder(ctx)
	ev := bfv.NewEvaluator(ctx, relin, galois)
	dec := bfv.NewDecryptor(ctx, sk)
	slots := ctx.Params.Slots()

	batch := make([][]int64, batchSize)
	for b := range batch {
		batch[b] = make([]int64, in)
		for i := range batch[b] {
			batch[b][i] = int64(src.Intn(31)) - 15
		}
	}

	// Packed path: one input, 2 ciphertexts on the wire.
	packed, err := fc.PackInput(batch[0], slots)
	if err != nil {
		return "", err
	}
	ct, err := enc.EncryptInts(packed)
	if err != nil {
		return "", err
	}
	start := time.Now()
	y, _, err := fc.Apply(ev, ecd, ct, slots)
	if err != nil {
		return "", err
	}
	packedTime := time.Since(start)
	if got, want := fc.ExtractOutput(dec.DecryptInts(y), ctx.T.Value), core.PlainFC(w, batch[0]); !slices.Equal(got, want) {
		return "", fmt.Errorf("bench: packed output %v, want %v", got, want)
	}

	// Batched path: the same layer over a whole batch, position-major
	// (slot b of ciphertext i holds element i of input b, the
	// CryptoNets/LoLa layout), in+out ciphertexts on the wire regardless
	// of batch size.
	ins := make([]*bfv.Ciphertext, in)
	for i := range ins {
		col := make([]int64, slots)
		for b, x := range batch {
			col[b] = x[i]
		}
		if ins[i], err = enc.EncryptInts(col); err != nil {
			return "", err
		}
	}
	start = time.Now()
	ys := applyBatched(ev, w, ins)
	batchedTime := time.Since(start)
	decoded := make([][]int64, out)
	for o, yo := range ys {
		if yo == nil {
			return "", fmt.Errorf("bench: batched output %d has all-zero weights", o)
		}
		decoded[o] = dec.DecryptInts(yo)
	}
	for b, x := range batch {
		for o, want := range core.PlainFC(w, x) {
			if decoded[o][b] != want {
				return "", fmt.Errorf("bench: batched item %d output %d = %d, want %d", b, o, decoded[o][b], want)
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: packed (latency) vs batched (throughput) linear layer (%d×%d)\n", in, out)
	fmt.Fprintf(&b, "%-10s %14s %16s %22s\n", "layout", "server time", "cts @ batch=1", "cts/input @ batch=max")
	fmt.Fprintf(&b, "%-10s %14v %16d %22.4f\n", "packed", packedTime, 2, 2.0)
	fmt.Fprintf(&b, "%-10s %14v %16d %22.4f\n", "batched", batchedTime, in+out,
		float64(in+out)/float64(slots))
	fmt.Fprintf(&b, "batched ciphertext traffic amortizes only past %d simultaneous inputs —\n", (in+out)/2)
	fmt.Fprintf(&b, "the §2.1 rationale for CHOCO's packed, latency-oriented algorithms.\n")
	return b.String(), nil
}

// applyBatched evaluates y = W·x over position-major ciphertexts with
// scalar multiplies and additions only — zero rotations, zero masking:
// the throughput-optimal structure, one output ciphertext per output
// element (nil for an all-zero weight row).
func applyBatched(ev *bfv.Evaluator, w [][]int64, cts []*bfv.Ciphertext) []*bfv.Ciphertext {
	outs := make([]*bfv.Ciphertext, len(w))
	for o, row := range w {
		for i, wi := range row {
			if wi == 0 {
				continue
			}
			term := ev.MulScalar(cts[i], uint64(max(wi, -wi)))
			if wi < 0 {
				term = ev.Neg(term)
			}
			if outs[o] == nil {
				outs[o] = term
			} else {
				outs[o] = ev.Add(outs[o], term)
			}
		}
	}
	return outs
}

// SetupCosts reports the one-time evaluation-key shipment per network
// — a client cost the paper (like its baselines' offline phases)
// amortizes but a real deployment must budget for.
func SetupCosts() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "One-time client setup: evaluation-key bundles per network\n")
	fmt.Fprintf(&b, "%-9s %8s %14s %16s %24s\n",
		"Network", "N", "galois keys", "bundle (MB)", "≈ inferences to amortize*")
	for _, n := range nn.Zoo() {
		keys, bytes, err := nn.EvaluationKeyFootprint(n)
		if err != nil {
			return "", err
		}
		per, err := n.CommBytes()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-9s %8d %14d %16.1f %24.1f\n",
			n.Name, n.Params.N(), keys, float64(bytes)/1e6, float64(bytes)/float64(per))
	}
	fmt.Fprintf(&b, "*bundle bytes as marshalled (residues at their bit widths) / the model's per-inference\n communication (CommBytes, in the paper's 8-byte words); shipped once per key epoch.\n")

	// What the executable path moves and computes per request, from the
	// operators' own plans: a packing regression shows here, on the push
	// that made it.
	fmt.Fprintf(&b, "\nPer request on the executable path (operators' plans, no weight zero; replies leave at k − ReplyDrop residues)\n")
	fmt.Fprintf(&b, "%-9s %10s %10s %10s %12s %12s %12s\n",
		"Network", "uploads", "replies", "reply (B)", "wire (B)", "rotations", "plain mults")
	for _, n := range []*nn.Network{nn.LeNetSmall(), nn.DemoNetwork()} {
		rc, err := nn.ExecutableRequestCost(n)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-9s %10d %10d %10d %12d %12d %12d\n",
			n.Name, rc.UpCiphertexts, rc.DownCiphertexts, rc.ReplyFrameBytes, rc.WireBytes, rc.Server.Rotations, rc.Server.PlainMults)
	}
	return b.String(), nil
}

// AblationParamMinimization quantifies §3.3's parameter claim: CHOCO's
// selected parameters vs a SEAL-default-style chain at the same N.
func AblationParamMinimization() (string, error) {
	// DNN profile: 4-bit quantized inputs, one weight multiply,
	// windowed rotations via redundancy, wide accumulation.
	chocoProfile := params.Profile{TBits: 23, MinSlots: 8192, PlainMults: 1, Rotations: 8, LogAccum: 8}
	maskedProfile := params.Profile{TBits: 23, MinSlots: 8192, PlainMults: 1, MaskedPermutes: 2, LogAccum: 8}

	choco, err := params.SelectBFV(chocoProfile, 2)
	if err != nil {
		return "", err
	}
	masked, err := params.SelectBFV(maskedProfile, 2)
	if err != nil {
		return "", err
	}
	// SEAL default at N=8192: a 218-bit chain, e.g. 4 data primes + 1
	// special (5×43/44 bits); ciphertexts then carry 4 residues.
	sealDefaultBytes := 2 * 8192 * 4 * 8

	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: parameter minimization (§3.2/§3.3, DNN-style profile)\n")
	fmt.Fprintf(&b, "%-34s %8s %8s %14s\n", "configuration", "N", "k(data)", "ciphertext B")
	fmt.Fprintf(&b, "%-34s %8d %8d %14d\n", "SEAL default (N=8192, 218-bit q)", 8192, 4, sealDefaultBytes)
	fmt.Fprintf(&b, "%-34s %8d %8d %14d\n", "CHOCO w/ masked permutes", masked.N(), len(masked.QBits), masked.CiphertextBytes())
	fmt.Fprintf(&b, "%-34s %8d %8d %14d\n", "CHOCO w/ rotational redundancy", choco.N(), len(choco.QBits), choco.CiphertextBytes())
	fmt.Fprintf(&b, "reduction vs SEAL default: %.0f%% (paper: 50%%, half from rotational redundancy)\n",
		100*(1-float64(choco.CiphertextBytes())/float64(sealDefaultBytes)))
	return b.String(), nil
}
