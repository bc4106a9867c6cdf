// Package bench regenerates every table and figure of the paper's
// evaluation from this repository's implementation: real HE
// measurements where the artifact is algorithmic (Tables 1, 3, 4, 5;
// Figs 10, 11, 13, 15) and calibrated device/accelerator models where
// the paper used hardware we cannot have (Figs 2, 7, 8, 12, 14). Each
// generator returns a formatted text report; cmd/chocobench prints
// them and the root-level benchmarks time them.
package bench

import (
	"fmt"
	"strings"
	"time"

	"choco/internal/bfv"
	"choco/internal/ckks"
	"choco/internal/nn"
	"choco/internal/protocol"
	"choco/internal/ring"
	"choco/internal/rotred"
)

// Table1 measures this implementation's HE operation latencies across
// ring degrees, confirming Table 1's complexity classes (times are our
// Go server's, not SEAL's; the classes are what the table asserts).
func Table1() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: HE operation complexity (measured on this implementation)\n")
	fmt.Fprintf(&b, "%-20s %-22s %12s %12s\n", "Operation", "Complexity", "N=2048", "N=4096")

	type opTimes struct{ small, large time.Duration }
	results := map[string]opTimes{}

	for _, logN := range []int{11, 12} {
		params := bfv.Parameters{LogN: logN, QBits: []int{40, 40}, PBits: 41, TBits: 17, Sigma: 3.2}
		ctx, err := bfv.NewContext(params)
		if err != nil {
			return "", err
		}
		kg := bfv.NewKeyGenerator(ctx, [32]byte{1})
		sk := kg.GenSecretKey()
		pk := kg.GenPublicKey(sk)
		relin := kg.GenRelinearizationKey(sk)
		galois := kg.GenRotationKeys(sk, 1)
		enc := bfv.NewEncryptor(ctx, pk, [32]byte{2})
		dec := bfv.NewDecryptor(ctx, sk)
		ecd := bfv.NewEncoder(ctx)
		ev := bfv.NewEvaluator(ctx, relin, galois)

		vals := make([]uint64, 32)
		for i := range vals {
			vals[i] = uint64(i)
		}
		pt, _ := ecd.EncodeUints(vals)
		ct := enc.Encrypt(pt)
		pm := ev.PrepareMul(pt)

		timeIt := func(f func()) time.Duration {
			const reps = 5
			start := time.Now()
			for i := 0; i < reps; i++ {
				f()
			}
			return time.Since(start) / reps
		}
		measured := map[string]time.Duration{
			"Encrypt":            timeIt(func() { enc.Encrypt(pt) }),
			"Decrypt":            timeIt(func() { dec.Decrypt(ct) }),
			"Plaintext Add":      timeIt(func() { ev.AddPlain(ct, pt) }),
			"Ciphertext Add":     timeIt(func() { ev.Add(ct, ct) }),
			"Plaintext Multiply": timeIt(func() { ev.MulPlain(ct, pm) }),
			"Ciphertext Multiply": timeIt(func() {
				if _, err := ev.MulRelin(ct, ct); err != nil {
					panic(err)
				}
			}),
			"Ciphertext Rotate": timeIt(func() {
				if _, err := ev.RotateRows(ct, 1); err != nil {
					panic(err)
				}
			}),
		}
		for op, d := range measured {
			t := results[op]
			if logN == 11 {
				t.small = d
			} else {
				t.large = d
			}
			results[op] = t
		}
	}

	complexity := map[string]string{
		"Encrypt":             "O(N log N · r)",
		"Decrypt":             "O(N log N · r)",
		"Plaintext Add":       "O(N · r)",
		"Ciphertext Add":      "O(N · r)",
		"Plaintext Multiply":  "O(N log N · r)",
		"Ciphertext Multiply": "O(N log N · r²)",
		"Ciphertext Rotate":   "O(N log N · r²)",
	}
	order := []string{"Encrypt", "Decrypt", "Plaintext Add", "Ciphertext Add",
		"Plaintext Multiply", "Ciphertext Multiply", "Ciphertext Rotate"}
	for _, op := range order {
		t := results[op]
		fmt.Fprintf(&b, "%-20s %-22s %12v %12v\n", op, complexity[op], t.small, t.large)
	}
	return b.String(), nil
}

// Table3 reports the parameter presets and their ciphertext sizes: the
// paper's, which counts SEAL's in-memory 8-byte words, and beside it what
// a fresh ciphertext weighs in a frame on this repository's wire, where a
// residue travels at its modulus's bit width — checked against live
// serialization.
func Table3() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: HE parameter selections (128-bit security)\n")
	fmt.Fprintf(&b, "%-6s %-7s %6s %8s %-14s %7s %14s %10s %14s\n",
		"Label", "Scheme", "N", "log2 q", "{k}", "log2 t", "Size (bytes)", "paper", "on the wire")

	type row struct {
		label, scheme string
		n, logq       int
		ks            string
		logt          string
		size, paper   int
		qBits         []int
	}
	a := bfv.PresetA()
	bp := bfv.PresetB()
	c := ckks.PresetC()
	rows := []row{
		{"A", "BFV", a.N(), a.LogQ() + a.PBits, "{58,58,59}", "23", a.CiphertextBytes(), 262144, a.QBits},
		{"B", "BFV", bp.N(), bp.LogQ() + bp.PBits, "{36,36,37}", "18", bp.CiphertextBytes(), 131072, bp.QBits},
		{"C", "CKKS", c.N(), 180, "{60,60,60}", "N/A", c.CiphertextBytes(), 262144, c.QBits},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-7s %6d %8d %-14s %7s %14d %10d %14d\n",
			r.label, r.scheme, r.n, r.logq, r.ks, r.logt, r.size, r.paper,
			protocol.FrameBytes(ring.PackedBytes(r.n, r.qBits...), 2, false))
		if r.size != r.paper {
			return "", fmt.Errorf("bench: preset %s size %d != paper %d", r.label, r.size, r.paper)
		}
	}

	// Cross-check against live serialization of preset B.
	ctx, err := bfv.NewContext(bp)
	if err != nil {
		return "", err
	}
	kg := bfv.NewKeyGenerator(ctx, [32]byte{1})
	sk := kg.GenSecretKey()
	enc := bfv.NewEncryptor(ctx, kg.GenPublicKey(sk), [32]byte{2})
	wire := len(protocol.MarshalBFV(enc.EncryptZero()))
	fmt.Fprintf(&b, "serialized preset-B ciphertext: %d bytes (2 polynomials of %d packed bytes + header; + the 4-byte length prefix on the wire)\n",
		wire, ctx.RingQ.PackedBytes())
	if onWire := protocol.FrameBytes(ctx.RingQ.PackedBytes(), 2, false); onWire != wire+4 {
		return "", fmt.Errorf("bench: preset B serializes to %d bytes + 4, FrameBytes says %d", wire, onWire)
	}
	return b.String(), nil
}

// Table4Row is one measured noise-budget row.
type Table4Row struct {
	N                      int
	LogT                   int
	KBits                  string
	Initial                int
	PostRotate             int
	PostPermute            int
	PaperInit, PaperRotate int
	PaperPermute           int
}

// Table4 measures initial, post-rotation, and post-masked-permutation
// noise budgets for the paper's six parameter rows using the exact
// noise meter — the experiment motivating rotational redundancy.
func Table4() (string, []Table4Row, error) {
	specs := []struct {
		logN, tBits        int
		qBits              []int
		pBits              int
		kLabel             string
		pInit, pRot, pPerm int
	}{
		{13, 20, []int{58, 58}, 59, "{58,58,59}", 68, 66, 42},
		{13, 23, []int{58, 58}, 59, "{58,58,59}", 62, 59, 33},
		{13, 28, []int{58, 58}, 59, "{58,58,59}", 52, 50, 18},
		{12, 16, []int{36, 36}, 37, "{36,36,37}", 33, 31, 12},
		{12, 18, []int{36, 36}, 37, "{36,36,37}", 29, 26, 5},
		{12, 20, []int{36, 36}, 37, "{36,36,37}", 25, 22, 0},
	}
	var rows []Table4Row
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: noise budget — initial / post-rotate / post-permute (paper in parens)\n")
	fmt.Fprintf(&b, "%-6s %-7s %-13s %16s %16s %16s\n", "N", "log2 t", "{k}", "Initial", "Post-Rotate", "Post-Permute")

	for _, s := range specs {
		params := bfv.Parameters{LogN: s.logN, QBits: s.qBits, PBits: s.pBits, TBits: s.tBits, Sigma: 3.2}
		ctx, err := bfv.NewContext(params)
		if err != nil {
			return "", nil, err
		}
		layout, err := rotred.NewLayout(128, 8, 2, ctx.Params.N()/2)
		if err != nil {
			return "", nil, err
		}
		kg := bfv.NewKeyGenerator(ctx, [32]byte{3})
		sk := kg.GenSecretKey()
		pk := kg.GenPublicKey(sk)
		relin := kg.GenRelinearizationKey(sk)
		galois := kg.GenRotationKeys(sk, layout.RequiredRotationKeys(8)...)
		enc := bfv.NewEncryptor(ctx, pk, [32]byte{4})
		ecd := bfv.NewEncoder(ctx)
		ev := bfv.NewEvaluator(ctx, relin, galois)

		chans := [][]uint64{make([]uint64, 128), make([]uint64, 128)}
		for i := range chans[0] {
			chans[0][i] = uint64(i) % 16
			chans[1][i] = uint64(i) % 7
		}
		packed, err := layout.Pack(chans, ctx.Params.Slots())
		if err != nil {
			return "", nil, err
		}
		ct, err := enc.EncryptUints(packed)
		if err != nil {
			return "", nil, err
		}
		initial := bfv.NoiseBudget(ctx, sk, ct)
		rot, err := layout.WindowedRotate(ev, ct, 4)
		if err != nil {
			return "", nil, err
		}
		postRotate := bfv.NoiseBudget(ctx, sk, rot)
		perm, err := layout.MaskedWindowedRotate(ev, ecd, ct, 4, ctx.Params.Slots())
		if err != nil {
			return "", nil, err
		}
		postPermute := bfv.NoiseBudget(ctx, sk, perm)

		rows = append(rows, Table4Row{
			N: params.N(), LogT: s.tBits, KBits: s.kLabel,
			Initial: initial, PostRotate: postRotate, PostPermute: postPermute,
			PaperInit: s.pInit, PaperRotate: s.pRot, PaperPermute: s.pPerm,
		})
		fmt.Fprintf(&b, "%-6d %-7d %-13s %8d (%3d) %9d (%3d) %10d (%3d)\n",
			params.N(), s.tBits, s.kLabel, initial, s.pInit, postRotate, s.pRot, postPermute, s.pPerm)
	}
	return b.String(), rows, nil
}

// Table5 reports the network statistics computed from the model zoo.
func Table5() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: evaluation networks (measured | paper)\n")
	fmt.Fprintf(&b, "%-9s %5s %4s %4s %4s %14s %16s %18s\n",
		"Network", "Cnv", "FC", "Act", "Pl", "MACs (×10⁶)", "4b model (MB)", "Comm (MB)")
	for _, n := range nn.Zoo() {
		conv, fc, act, pool := n.LinearLayerCount()
		macs := float64(n.MACs()) / 1e6
		model4b := float64(n.ModelSizeBytes(4)) / 1e6
		comm, err := n.CommBytes()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-9s %5d %4d %4d %4d %7.2f|%-7.2f %8.3f|%-7.2f %9.2f|%-8.2f\n",
			n.Name, conv, fc, act, pool,
			macs, n.PaperMACsM, model4b, n.PaperModelMB4b,
			float64(comm)/1e6, n.PaperCommMB)
	}
	fmt.Fprintf(&b, "accuracy columns (float/8b/4b %%) carry the paper's values: ")
	for _, n := range nn.Zoo() {
		fmt.Fprintf(&b, "%s %.1f/%.1f/%.1f  ", n.Name, n.PaperAccFloat, n.PaperAcc8b, n.PaperAcc4b)
	}
	fmt.Fprintf(&b, "\n")
	return b.String(), nil
}
