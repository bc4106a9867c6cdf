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
)

// LayerCost is one LeNet-Sm layer on the cost sheet: the measured warm
// Apply next to its RotationPlan priced from unit costs.
type LayerCost struct {
	Layer       string
	MeasuredMs  float64
	PredictedMs float64
}

// residentBytes is what a product-packed layer's operator holds once an
// Apply has lifted its kernels: one per plaintext product of its plan,
// each over Q alone — N words per data prime, 65 536 B at bfv-B.
func residentBytes(ctx *bfv.Context, plan core.RotationPlan) int64 {
	return int64(plan.PlainMults) * int64(ctx.Params.N()*len(ctx.Params.QBits)*8)
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
// of what the executor does — every layer takes the product packing, so
// one plaintext product over Q (a forward NTT, a dyadic product and an
// inverse NTT per component), and for each further tile of a layer one
// dyadic product and inverse NTT over the shared forward transform — all
// measured in this process on one worker (the width the end-to-end
// benchmark is pinned to), next to the measured warm Apply and the bytes
// of its resident kernels. It returns the report and one record per
// layer (TestCostSheetPredictsApply holds the two timings within 15 %,
// TestCostSheetResidentBytes the bytes to the store).
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
	ev := bfv.NewEvaluator(ctx, nil, nil) // no layer rotates: no key
	ecd := bfv.NewEncoder(ctx)
	vals := make([]int64, slots)
	for i := range vals {
		vals[i] = int64(i*13%15) - 7
	}
	ct, err := bfv.NewEncryptor(ctx, kg.GenPublicKey(sk), [32]byte{56}).EncryptInts(vals)
	if err != nil {
		return "", nil, err
	}
	kernels := []*bfv.PlaintextQ{ctx.PrepareMulQ(vals[:len(vals)/2]), ctx.PrepareMulQ(vals[len(vals)/2:])}
	tiles := func(n int) func() error {
		return func() error {
			for _, o := range ev.MulPlainQTiles(ct, kernels[:n]) {
				ctx.RecycleCt(o)
			}
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
		name, desc string
		plan       core.RotationPlan
		outputs    int
		apply      func() error
	}{
		{"conv1", "conv1 (28x28, 5x5, 1->4 channels, product packing)", conv1.Plan(), conv1.Groups(), convApply(conv1)},
		{"conv2", fmt.Sprintf("conv2 (14x14, 5x5, 4->6 channels, product packing, %d tiles of %d outputs)", conv2.Groups(), conv2.GroupSize()), conv2.Plan(), conv2.Groups(), convApply(conv2)},
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
	ms, err := steadyMs(tiles(1), tiles(2), layers[0].apply, layers[1].apply, layers[2].apply)
	if err != nil {
		return "", nil, err
	}
	product, tile := ms[0], ms[1]-ms[0]
	fmt.Fprintf(&b, "bfv-B LeNet-Sm layers, warm Apply against the plan priced from unit costs: product over Q %.3f ms, each further tile %.3f ms\n",
		product, tile)

	var recs []LayerCost
	for i, l := range layers {
		measured := ms[2+i]
		allocs := int64(testing.AllocsPerRun(4, func() { l.apply() }))
		resident := residentBytes(ctx, l.plan)
		predicted := product + float64(l.plan.PlainMults-1)*tile
		recs = append(recs, LayerCost{Layer: l.name, MeasuredMs: measured, PredictedMs: predicted})
		fmt.Fprintf(&b, "  %s, %d reply ciphertexts, %d key switches, resident_bytes %d (%d kernels)\n    plan: %s\n",
			l.desc, l.outputs, l.plan.BabySteps+l.plan.GiantSteps, resident, l.plan.PlainMults, l.plan)
		fmt.Fprintf(&b, "    predicted %.2f ms = 1 product over Q + %d further tiles; warm Apply measured %.2f ms (%d allocs/op), %+.1f %% off the sheet\n",
			predicted, l.plan.PlainMults-1, measured, allocs, 100*(measured/predicted-1))
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
// left: on the slot packing, conv2's first Apply after the unit loops
// took about 1 ms longer at bfv-B than the next.
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
