package bench

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"choco/internal/bfv"
	"choco/internal/ckks"
	"choco/internal/core"
	"choco/internal/par"
)

// MatmulBench is one machine-readable benchmark record for the
// matrix-vector trajectory (BENCH_matmul.json). The level-1 entries
// are the Halevi–Shoup "before", levels 2 and 3 the QP-lazy "after",
// so one file carries the comparison the triple-hoisting work is
// judged by. Plan carries the key-switch accounting the level buys
// (core.RotationPlan), making the why of the speedup part of the
// artifact.
type MatmulBench struct {
	Op          string `json:"op"`
	Preset      string `json:"preset"`
	Level       int    `json:"level"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	Plan        string `json:"plan,omitempty"`
	// PlanPredictedNs prices the whole plan from measured unit costs (the
	// LeNet-Sm layer records), to set against NsPerOp.
	PlanPredictedNs int64 `json:"plan_predicted_ns,omitempty"`
}

// matmulDim is the square FC the acceptance numbers are measured on:
// 64×64 at BFV set B packs to P=64 slots, so BSGS picks B=G=8 — eight
// baby and eight giant steps, enough for the giant-step amortization
// to dominate.
const matmulDim = 64

// Matmul measures the FC matrix-vector engine at every hoisting level
// on one worker — level 1 (Halevi–Shoup, per-giant mod-down), level 2
// (QP-lazy giants, one shared mod-down), level 3 (QP-resident baby
// steps too) — then LeNet-Sm's three layers against their priced plans
// (lenetCostSheet) and the CKKS lazy rotation-sum against its serial
// fold, and returns a text report with the per-level rotation plans
// alongside the records for BENCH_matmul.json.
func Matmul() (string, []MatmulBench, error) {
	old := par.Parallelism()
	par.SetParallelism(1) // the acceptance numbers are single-CPU
	defer par.SetParallelism(old)

	var recs []MatmulBench
	measure := func(op, preset string, level int, plan string, fn func(b *testing.B)) MatmulBench {
		r := testing.Benchmark(fn)
		rec := MatmulBench{
			Op:          op,
			Preset:      preset,
			Level:       level,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Plan:        plan,
		}
		recs = append(recs, rec)
		return rec
	}

	var b strings.Builder
	fmt.Fprintf(&b, "FC matmul: Halevi–Shoup (L1) vs QP-lazy giants (L2) vs QP-resident babies too (L3), 1 worker\n")

	// BFV at PresetB: the 64×64 FC layer the acceptance criterion names.
	{
		params := bfv.PresetB()
		ctx, err := bfv.NewContext(params)
		if err != nil {
			return "", nil, err
		}
		rowSize := ctx.Params.N() / 2
		w := make([][]int64, matmulDim)
		for r := range w {
			w[r] = make([]int64, matmulDim)
			for c := range w[r] {
				w[r][c] = int64((r*31+c*7)%11) - 5
			}
		}
		fc, err := core.NewFC(matmulDim, matmulDim, w, rowSize)
		if err != nil {
			return "", nil, err
		}

		kg := bfv.NewKeyGenerator(ctx, [32]byte{51})
		sk := kg.GenSecretKey()
		pk := kg.GenPublicKey(sk)
		galois := kg.GenRotationKeys(sk, fc.RotationSteps()...)
		enc := bfv.NewEncryptor(ctx, pk, [32]byte{52})
		ecd := bfv.NewEncoder(ctx)
		ev := bfv.NewEvaluator(ctx, nil, galois)

		x := make([]int64, fc.In)
		for i := range x {
			x[i] = int64((i*13)%15) - 7
		}
		slots := ctx.Params.Slots()
		packed, err := fc.PackInput(x, slots)
		if err != nil {
			return "", nil, err
		}
		ct, err := enc.EncryptInts(packed)
		if err != nil {
			return "", nil, err
		}

		fmt.Fprintf(&b, "bfv-B FC %dx%d: B=%d baby, G=%d giant steps\n", fc.In, fc.Out, fc.B, fc.G)
		byLevel := map[int]MatmulBench{}
		for _, level := range []int{1, 2, 3} {
			plan := fc.Plan(level)
			// Every level rebuilds its weight plaintexts: level 1 always
			// does, and levels 2/3 run over a store too small to keep
			// one, so the ladder prices key-switching work alone. (What
			// keeping them buys is the benchmark's business: benchmark/.)
			apply := func() (*bfv.Ciphertext, error) {
				outs, _, err := fc.ApplyBatchAtLevel(ecd, []core.BatchInput{{Ev: ev, Ct: ct}}, slots, core.NewPlainCache(1), level)
				if err != nil {
					return nil, err
				}
				return outs[0], nil
			}
			// Warm the per-key Shoup companions and ring scratch pools
			// so every measured op is steady-state.
			warm, err := apply()
			if err != nil {
				return "", nil, err
			}
			ctx.RecycleCt(warm)
			rec := measure("fc-apply-64x64", "bfv-B", level, plan.String(), func(bb *testing.B) {
				bb.ReportAllocs()
				for i := 0; i < bb.N; i++ {
					out, err := apply()
					if err != nil {
						bb.Fatal(err)
					}
					ctx.RecycleCt(out)
				}
			})
			byLevel[level] = rec
			fmt.Fprintf(&b, "  L%d %14d ns/op %10d allocs/op   plan: %s\n",
				level, rec.NsPerOp, rec.AllocsPerOp, plan)
		}
		for _, level := range []int{2, 3} {
			if base, rec := byLevel[1], byLevel[level]; base.NsPerOp > 0 && rec.NsPerOp > 0 {
				fmt.Fprintf(&b, "bfv-B fc-apply speedup L1/L%d: %.2fx\n",
					level, float64(base.NsPerOp)/float64(rec.NsPerOp))
			}
		}
	}

	// LeNet-Sm's three linear layers at PresetB on the same BSGS executor,
	// each plan priced from unit costs against the measured warm Apply.
	layers, err := lenetCostSheet(&b)
	if err != nil {
		return "", nil, err
	}
	recs = append(recs, layers...)

	// CKKS at PresetC: the lazy rotation-sum primitive the approximate
	// scheme's linear layers fold with, against the rotate-and-add
	// serial fold it is byte-identical to.
	{
		params := ckks.PresetC()
		ctx, err := ckks.NewContext(params)
		if err != nil {
			return "", nil, err
		}
		steps := rotationBatch()
		kg := ckks.NewKeyGenerator(ctx, [32]byte{53})
		sk := kg.GenSecretKey()
		pk := kg.GenPublicKey(sk)
		galois := kg.GenRotationKeys(sk, steps...)
		enc := ckks.NewEncryptor(ctx, pk, [32]byte{54})
		ev := ckks.NewEvaluator(ctx, nil, galois)

		vals := make([]float64, ctx.Params.Slots())
		for i := range vals {
			vals[i] = float64(i%100)/25 - 2
		}
		ct, err := enc.EncryptFloats(vals)
		if err != nil {
			return "", nil, err
		}

		serialFold := func() error {
			var acc *ckks.Ciphertext
			for _, s := range steps {
				term, err := ev.RotateLeft(ct, s)
				if err != nil {
					return err
				}
				if acc == nil {
					acc = term
					continue
				}
				if acc, err = ev.Add(acc, term); err != nil {
					return err
				}
			}
			return nil
		}
		if err := serialFold(); err != nil {
			return "", nil, err
		}
		if _, err := ev.RotateSumLazy(ct, steps); err != nil {
			return "", nil, err
		}

		serial := measure("rotsum8-serial", "ckks-C", 1, "", func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				if err := serialFold(); err != nil {
					bb.Fatal(err)
				}
			}
		})
		lazy := measure("rotsum8-lazy", "ckks-C", 3, "", func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				if _, err := ev.RotateSumLazy(ct, steps); err != nil {
					bb.Fatal(err)
				}
			}
		})
		fmt.Fprintf(&b, "ckks-C rotsum8: serial %d ns/op, lazy %d ns/op\n", serial.NsPerOp, lazy.NsPerOp)
		if serial.NsPerOp > 0 && lazy.NsPerOp > 0 {
			fmt.Fprintf(&b, "ckks-C rotsum8 speedup (serial/lazy): %.2fx\n",
				float64(serial.NsPerOp)/float64(lazy.NsPerOp))
		}
	}

	return b.String(), recs, nil
}

// lenetCostSheet is the cost sheet as a checked model: LeNet-Sm's three
// linear layers at PresetB, each RotationPlan priced from the unit costs
// of everything the executor does — decompositions, QP-resident babies,
// the lifts of the unrotated input and of the hoisted c0, one
// multiply-accumulate per term, one close per inner sum, QP giants and the
// fold's mod-down — all measured in this process, next to the measured
// warm Apply. It writes the report lines to b and returns one record per
// layer with PlanPredictedNs set (TestCostSheetPredictsApply holds the two
// within 15 %).
func lenetCostSheet(b *strings.Builder) ([]MatmulBench, error) {
	ctx, err := bfv.NewContext(bfv.PresetB())
	if err != nil {
		return nil, err
	}
	rowSize, slots := ctx.Params.N()/2, ctx.Params.Slots()
	weight := func(i int) int64 {
		if w := int64(i%15) - 7; w != 0 {
			return w
		}
		return 1
	}
	newConv := func(spec core.ConvSpec) (*core.Conv2D, error) {
		w := make([][][]int64, spec.OutC)
		for o := range w {
			w[o] = make([][]int64, spec.InC)
			for c := range w[o] {
				w[o][c] = make([]int64, spec.KH*spec.KW)
				for k := range w[o][c] {
					w[o][c][k] = weight(o*31 + c*7 + k*3)
				}
			}
		}
		return core.NewConv2D(spec, w, rowSize)
	}
	conv1, err := newConv(core.ConvSpec{InH: 28, InW: 28, InC: 1, KH: 5, KW: 5, OutC: 4})
	if err != nil {
		return nil, err
	}
	conv2, err := newConv(core.ConvSpec{InH: 14, InW: 14, InC: 4, KH: 5, KW: 5, OutC: 6})
	if err != nil {
		return nil, err
	}
	fcW := make([][]int64, 10)
	for r := range fcW {
		fcW[r] = make([]int64, 294)
		for c := range fcW[r] {
			fcW[r][c] = weight(r*31 + c*7)
		}
	}
	fc, err := core.NewFC(294, 10, fcW, rowSize)
	if err != nil {
		return nil, err
	}

	kg := bfv.NewKeyGenerator(ctx, [32]byte{55})
	sk := kg.GenSecretKey()
	steps := conv2.RotationSteps() // a kernel offset first, a block shift last
	allSteps := append(append(append([]int{}, steps...), conv1.RotationSteps()...), fc.RotationSteps()...)
	ev := bfv.NewEvaluator(ctx, nil, kg.GenRotationKeys(sk, allSteps...))
	ecd := bfv.NewEncoder(ctx)
	vals := make([]int64, slots)
	for i := range vals {
		vals[i] = int64(i*13%15) - 7
	}
	pt, err := ecd.EncodeInts(vals)
	if err != nil {
		return nil, err
	}
	ct, err := bfv.NewEncryptor(ctx, kg.GenPublicKey(sk), [32]byte{56}).EncryptInts(vals)
	if err != nil {
		return nil, err
	}

	// Unit costs of the plan's kinds of work (not recorded: the
	// benchmark's bfv.* rows own them).
	dc, err := ev.Decompose(ct)
	if err != nil {
		return nil, err
	}
	defer dc.Release()
	// The babies and the multiply-accumulates cycle over as many distinct
	// switching keys and operands as a request does: its 54 rotation keys
	// are 41 MB, 24 babies and 166 weight plaintexts 20 MB, so a loop over
	// one of each would time a cache the executor never has.
	turn := 0
	rotate := func(steps []int) func() error {
		return func() error {
			turn++
			nc, err := ev.RotateRowsLazyNTT(dc, steps[turn%len(steps)])
			if err == nil {
				ev.RecycleNTT(nc)
			}
			return err
		}
	}
	babySteps := steps[:conv2.Plan().BabySteps]
	// An inner sum of one term and of a kernel's worth, over real
	// rotations (a lift's empty special-prime row would flatter the
	// close's rounding branches): the difference prices a
	// multiply-accumulate, the rest of the short one the close.
	xs, pms := make([]*bfv.NTTCiphertext, len(babySteps)), make([]*bfv.PlaintextMul, 166)
	for k := range xs {
		if xs[k], err = ev.RotateRowsLazyNTT(dc, babySteps[k]); err != nil {
			return nil, err
		}
		defer ev.RecycleNTT(xs[k])
	}
	for k := range pms {
		pms[k] = ev.PrepareMul(pt)
	}
	innerSum := func(terms int) func() error {
		return func() error {
			acc := ev.NewNTTAccumulator()
			for k := 0; k < terms; k++ {
				turn++
				ev.MulPlainAcc(acc, xs[turn%len(xs)], pms[turn%len(pms)])
			}
			ctx.RecycleCt(ev.FromNTT(acc))
			return nil
		}
	}
	convApply := func(conv *core.Conv2D) func() error {
		return func() error {
			outs, _, err := conv.Apply(ev, ecd, ct, slots)
			for _, o := range outs {
				ctx.RecycleCt(o)
			}
			return err
		}
	}
	layers := []struct {
		op, desc string
		plan     core.RotationPlan
		outputs  int
		apply    func() error
	}{
		{"conv1-apply-lenetsm", fmt.Sprintf("conv1 (28x28, 5x5, 1->4 channels, Cb=%d)", conv1.Cb), conv1.Plan(), conv1.Groups(), convApply(conv1)},
		{"conv2-apply-lenetsm", fmt.Sprintf("conv2 (14x14, 5x5, 4->6 channels, Cb=%d)", conv2.Cb), conv2.Plan(), conv2.Groups(), convApply(conv2)},
		{"fc-apply-lenetsm", fmt.Sprintf("fc (294x10, %d extended diagonals)", fc.Po), fc.Plan(fc.HoistLevel()), 1, func() error {
			out, _, err := fc.Apply(ev, ecd, ct, slots)
			if err == nil {
				ctx.RecycleCt(out)
			}
			return err
		}},
	}

	// Units first, then the layers' warm Applies, all timed in the same
	// interleaved rounds (steadyMs).
	ms, err := steadyMs(
		func() error {
			d, err := ev.Decompose(ct)
			if err == nil {
				d.Release()
			}
			return err
		},
		rotate(append(append(append([]int{}, babySteps...), conv1.RotationSteps()...), fc.RotationSteps()...)),
		rotate([]int{0}),
		innerSum(1),
		innerSum(len(xs)+1),
		func() error {
			qa := ev.NewQPAccumulator()
			defer qa.Release()
			return ev.AccumulateQP(qa, dc, steps[len(steps)-1])
		},
		func() error {
			qa := ev.NewQPAccumulator()
			if err := ev.AddLazy(qa, ct); err != nil {
				qa.Release()
				return err
			}
			ctx.RecycleCt(ev.FinalizeModDown(qa))
			return nil
		},
		layers[0].apply, layers[1].apply, layers[2].apply)
	if err != nil {
		return nil, err
	}
	decompose, baby, lift, short, long, giant, modDown := ms[0], ms[1], ms[2], ms[3], ms[4], ms[5], ms[6]
	mac := (long - short) / float64(len(xs))
	closeSum := short - mac
	fmt.Fprintf(b, "bfv-B LeNet-Sm layers, warm Apply against the plan priced from unit costs: decompose %.3f ms, QP-resident baby %.3f ms, lift %.3f ms, multiply-accumulate %.4f ms, inner-sum close %.3f ms, QP giant %.3f ms, mod-down %.3f ms\n",
		decompose, baby, lift, mac, closeSum, giant, modDown)

	var recs []MatmulBench
	for i, l := range layers {
		measured := ms[7+i]
		allocs := int64(testing.AllocsPerRun(4, func() { l.apply() }))
		// Two lifts: the unrotated baby, and the c0 every rotated baby
		// gathers (hoisted with the decomposition, built once).
		keySwitching := float64(l.plan.Decompositions)*decompose + float64(l.plan.BabySteps)*baby + 2*lift +
			float64(l.plan.GiantSteps)*giant + float64(l.plan.ModDowns)*modDown
		innerSums := float64(l.plan.PlainMults)*mac + float64(l.plan.NTTModDowns)*closeSum
		recs = append(recs, MatmulBench{Op: l.op, Preset: "bfv-B", Level: l.plan.Level, NsPerOp: int64(measured * 1e6), AllocsPerOp: allocs,
			Plan: l.plan.String(), PlanPredictedNs: int64((keySwitching + innerSums) * 1e6)})
		fmt.Fprintf(b, "  %s, %d reply ciphertexts, %d key switches\n    plan: %s\n", l.desc, l.outputs, l.plan.BabySteps+l.plan.GiantSteps, l.plan)
		fmt.Fprintf(b, "    predicted %.2f ms = key switching %.2f + %d multiply-accumulates and %d inner-sum closes %.2f; warm Apply measured %.2f ms (%d allocs/op), %+.1f %% off the sheet\n",
			keySwitching+innerSums, keySwitching, l.plan.PlainMults, l.plan.NTTModDowns, innerSums, measured, allocs, 100*(measured/(keySwitching+innerSums)-1))
	}
	return recs, nil
}

// steadyMs times each of fns the way the end-to-end benchmark reads a
// latency, low in the distribution: per call, the fifth-fastest of 25
// batches of about 10 ms. The batches run in rounds, one of every fn per
// round, so a noisy spell on a shared box falls on the unit costs and on
// the Applies they are set against alike — a mean, or one fn timed after
// another, would move them apart. Each fn runs once untimed first (an
// Apply fills its operator's plaintext store then).
func steadyMs(fns ...func() error) ([]float64, error) {
	batch := func(fn func() error, n int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	calls := make([]int, len(fns))
	for i, fn := range fns {
		if _, err := batch(fn, 1); err != nil {
			return nil, err
		}
		warm, err := batch(fn, 2)
		if err != nil {
			return nil, err
		}
		calls[i] = max(1, int(10*time.Millisecond/(warm/2+1)))
	}
	const rounds = 25
	per := make([][]float64, len(fns))
	for r := 0; r < rounds; r++ {
		for i, fn := range fns {
			d, err := batch(fn, calls[i])
			if err != nil {
				return nil, err
			}
			per[i] = append(per[i], float64(d)/float64(calls[i])/1e6)
		}
	}
	out := make([]float64, len(fns))
	for i := range per {
		slices.Sort(per[i])
		out[i] = per[i][4]
	}
	return out, nil
}

// MatmulJSON renders the records as the BENCH_matmul.json body.
func MatmulJSON(recs []MatmulBench) ([]byte, error) {
	out, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
