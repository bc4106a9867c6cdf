package bench

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"choco/internal/bfv"
	"choco/internal/core"
	"choco/internal/par"
	"choco/internal/ring"
)

// LayerCost is one LeNet-Sm layer on the cost sheet: the measured warm
// Apply next to its RotationPlan priced from unit costs.
type LayerCost struct {
	Layer       string
	MeasuredMs  float64
	PredictedMs float64
}

// residentBytes is what a layer's weight store holds once an Apply has
// filled it: one prepared plaintext per plaintext multiply of its plan
// (the cost sheet's weights have no zero), each lifted over QP — N words
// per data prime and per special prime, 98 304 B at bfv-B — or, under the
// product packing (level 0), its one kernel over Q alone, 65 536 B.
func residentBytes(ctx *bfv.Context, plan core.RotationPlan) int64 {
	rows := len(ctx.Params.QBits) + 1
	if plan.Level == 0 {
		rows--
	}
	return int64(plan.PlainMults) * int64(ctx.Params.N()*rows*8)
}

// lenetLayers builds LeNet-Sm's three linear layers for the given row
// size with the cost sheet's synthetic weights, none of them zero.
func lenetLayers(rowSize int) (conv1, conv2 *core.Conv2D, fc *core.FC, err error) {
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
	if conv1, err = newConv(core.ConvSpec{InH: 28, InW: 28, InC: 1, KH: 5, KW: 5, OutC: 4}); err != nil {
		return nil, nil, nil, err
	}
	if conv2, err = newConv(core.ConvSpec{InH: 14, InW: 14, InC: 4, KH: 5, KW: 5, OutC: 6}); err != nil {
		return nil, nil, nil, err
	}
	fcW := make([][]int64, 10)
	for r := range fcW {
		fcW[r] = make([]int64, 294)
		for c := range fcW[r] {
			fcW[r][c] = weight(r*31 + c*7)
		}
	}
	if fc, err = core.NewFC(294, 10, fcW, rowSize); err != nil {
		return nil, nil, nil, err
	}
	return conv1, conv2, fc, nil
}

// CostSheet is the cost sheet as a checked model: LeNet-Sm's three
// linear layers at PresetB, each RotationPlan priced from the unit costs
// of everything the executor does — on the slot packing (conv2)
// decompositions, QP-resident babies, the lifts of the unrotated input and
// of the hoisted c0, one multiply-accumulate per term, one close per inner
// sum, QP giants and the fold's mod-down; on the product packing (conv1
// and FC) one plaintext product over Q — all measured in this process on one worker (the width
// the end-to-end benchmark is pinned to), next to the measured warm Apply
// and the bytes of its resident weight plaintexts. It returns the report
// and one record per layer (TestCostSheetPredictsApply holds the two
// timings within 15 %, TestCostSheetResidentBytes the bytes to the store).
func CostSheet() (string, []LayerCost, error) {
	old := par.Parallelism()
	par.SetParallelism(1)
	defer par.SetParallelism(old)
	var b strings.Builder
	ctx, err := bfv.NewContext(bfv.PresetB())
	if err != nil {
		return "", nil, err
	}
	rowSize, slots := ctx.Params.N()/2, ctx.Params.Slots()
	conv1, conv2, fc, err := lenetLayers(rowSize)
	if err != nil {
		return "", nil, err
	}

	kg := bfv.NewKeyGenerator(ctx, [32]byte{55})
	sk := kg.GenSecretKey()
	// conv2 is the one layer on slots: its steps are all a request's.
	steps := conv2.RotationSteps() // a kernel offset first, a block shift last
	ev := bfv.NewEvaluator(ctx, nil, kg.GenRotationKeys(sk, steps...))
	ecd := bfv.NewEncoder(ctx)
	vals := make([]int64, slots)
	for i := range vals {
		vals[i] = int64(i*13%15) - 7
	}
	pt, err := ecd.EncodeInts(vals)
	if err != nil {
		return "", nil, err
	}
	ct, err := bfv.NewEncryptor(ctx, kg.GenPublicKey(sk), [32]byte{56}).EncryptInts(vals)
	if err != nil {
		return "", nil, err
	}

	// Unit costs of the plan's kinds of work (not recorded: the
	// benchmark's bfv.* rows own them).
	dc, err := ev.Decompose(ct)
	if err != nil {
		return "", nil, err
	}
	defer dc.Release()
	// The babies and the multiply-accumulates cycle over as many distinct
	// switching keys and operands as a request does: its 27 rotation keys
	// are 21 MB, 24 babies and 100 weight plaintexts 14.5 MB, so a loop over
	// one of each would time a cache the executor never has. A layer also
	// holds all its babies until its inner sums have read them, so the
	// rotations keep that many outputs live and recycle the oldest: an
	// output recycled at once would be rewritten in the same cached
	// buffer every time.
	babySteps := steps[:conv2.Plan().BabySteps]
	turn := 0
	var live []*bfv.NTTCiphertext
	defer func() {
		for _, nc := range live {
			ev.RecycleNTT(nc)
		}
	}()
	rotate := func(steps []int) func() error {
		return func() error {
			turn++
			nc, err := ev.RotateRowsLazyNTT(dc, steps[turn%len(steps)])
			if err != nil {
				return err
			}
			if live = append(live, nc); len(live) > len(babySteps) {
				ev.RecycleNTT(live[0])
				live = live[1:]
			}
			return nil
		}
	}
	// An inner sum of one term and of a kernel's worth, over real
	// rotations (a lift's empty special-prime row would flatter the
	// close's rounding branches): the difference prices a
	// multiply-accumulate, the rest of the short one the close.
	xs, pms := make([]*bfv.NTTCiphertext, len(babySteps)), make([]*bfv.PlaintextMul, conv2.Plan().PlainMults)
	for k := range xs {
		if xs[k], err = ev.RotateRowsLazyNTT(dc, babySteps[k]); err != nil {
			return "", nil, err
		}
		defer ev.RecycleNTT(xs[k])
	}
	for k := range pms {
		pms[k] = ev.PrepareMul(pt)
	}
	innerSum := func(terms int) func() error {
		return func() error {
			acc := ctx.NewNTTAccumulator(ctx.MaxLevel())
			for k := 0; k < terms; k++ {
				turn++
				ctx.MulPlainAcc(acc, xs[turn%len(xs)].Value, pms[turn%len(pms)].NTT)
			}
			c0, c1 := ctx.FromNTT(acc)
			ctx.RecycleCt(&bfv.Ciphertext{Value: []*ring.Poly{c0, c1}})
			return nil
		}
	}
	kernel := ctx.PrepareMulQ(vals[:len(vals)/2])
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
		name, desc string
		plan       core.RotationPlan
		outputs    int
		apply      func() error
	}{
		{"conv1", "conv1 (28x28, 5x5, 1->4 channels, product packing)", conv1.Plan(), conv1.Groups(), convApply(conv1)},
		{"conv2", fmt.Sprintf("conv2 (14x14, 5x5, 4->6 channels, Cb=%d)", conv2.Cb), conv2.Plan(), conv2.Groups(), convApply(conv2)},
		{"fc", "fc (294x10, product packing)", fc.Plan(fc.HoistLevel()), 1, func() error {
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
		rotate(steps),
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
		func() error {
			ctx.RecycleCt(ev.MulPlainQ(ct, kernel))
			return nil
		},
		layers[0].apply, layers[1].apply, layers[2].apply)
	if err != nil {
		return "", nil, err
	}
	decompose, baby, lift, short, long, giant, modDown, product := ms[0], ms[1], ms[2], ms[3], ms[4], ms[5], ms[6], ms[7]
	mac := (long - short) / float64(len(xs))
	closeSum := short - mac
	fmt.Fprintf(&b, "bfv-B LeNet-Sm layers, warm Apply against the plan priced from unit costs: decompose %.3f ms, QP-resident baby %.3f ms, lift %.3f ms, multiply-accumulate %.4f ms, inner-sum close %.3f ms, QP giant %.3f ms, mod-down %.3f ms, product over Q %.3f ms\n",
		decompose, baby, lift, mac, closeSum, giant, modDown, product)

	var recs []LayerCost
	for i, l := range layers {
		measured := ms[8+i]
		allocs := int64(testing.AllocsPerRun(4, func() { l.apply() }))
		resident := residentBytes(ctx, l.plan)
		fmt.Fprintf(&b, "  %s, %d reply ciphertexts, %d key switches, resident_bytes %d (%d weight plaintexts)\n    plan: %s\n",
			l.desc, l.outputs, l.plan.BabySteps+l.plan.GiantSteps, resident, l.plan.PlainMults, l.plan)
		if l.plan.Level == 0 {
			predicted := float64(l.plan.PlainMults) * product
			recs = append(recs, LayerCost{Layer: l.name, MeasuredMs: measured, PredictedMs: predicted})
			fmt.Fprintf(&b, "    predicted %.2f ms = %d product over Q; warm Apply measured %.2f ms (%d allocs/op), %+.1f %% off the sheet\n",
				predicted, l.plan.PlainMults, measured, allocs, 100*(measured/predicted-1))
			continue
		}
		// Two lifts: the unrotated baby, and the c0 every rotated baby
		// gathers (hoisted with the decomposition, built once).
		keySwitching := float64(l.plan.Decompositions)*decompose + float64(l.plan.BabySteps)*baby + 2*lift +
			float64(l.plan.GiantSteps)*giant + float64(l.plan.ModDowns)*modDown
		innerSums := float64(l.plan.PlainMults)*mac + float64(l.plan.NTTModDowns)*closeSum
		recs = append(recs, LayerCost{Layer: l.name, MeasuredMs: measured, PredictedMs: keySwitching + innerSums})
		fmt.Fprintf(&b, "    predicted %.2f ms = key switching %.2f + %d multiply-accumulates and %d inner-sum closes %.2f; warm Apply measured %.2f ms (%d allocs/op), %+.1f %% off the sheet\n",
			keySwitching+innerSums, keySwitching, l.plan.PlainMults, l.plan.NTTModDowns, innerSums, measured, allocs, 100*(measured/(keySwitching+innerSums)-1))
	}
	return b.String(), recs, nil
}

// steadyMs times each of fns the way the end-to-end benchmark reads a
// latency, low in the distribution: per call, the fifth-fastest of 25
// batches of about 10 ms. The batches run in rounds, one of every fn per
// round, so a noisy spell on a shared box falls on the unit costs and on
// the Applies they are set against alike — a mean, or one fn timed after
// another, would move them apart. Each fn runs once untimed first (an
// Apply fills its operator's plaintext store then), and once untimed ahead
// of each batch, so a call is timed after calls of its own kind, as a
// layer runs request after request, and not on the state the previous fn
// left: conv2's first Apply after the unit loops takes about 1 ms longer
// at bfv-B than the next.
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
			if err := fn(); err != nil {
				return nil, err
			}
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
