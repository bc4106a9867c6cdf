package bench

import (
	"math"
	"strings"
	"testing"

	"choco/internal/apps/distance"
	"choco/internal/bfv"
	"choco/internal/core"
	"choco/internal/nn"
)

func TestTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Ciphertext Multiply") {
		t.Error("missing rows")
	}
	t.Log("\n" + out)
}

func TestTable3(t *testing.T) {
	out, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
}

func TestTable4ReproducesNoiseStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	for _, r := range rows {
		// Structure: initial > post-rotate >> post-permute; rotation
		// costs a few bits, masking costs tens.
		if !(r.Initial >= r.PostRotate && r.PostRotate > r.PostPermute) {
			t.Errorf("row %+v: ordering violated", r)
		}
		if r.Initial-r.PostRotate > 8 {
			t.Errorf("row N=%d t=%d: rotation cost %d bits too high", r.N, r.LogT, r.Initial-r.PostRotate)
		}
		if r.PostRotate-r.PostPermute < 10 && r.PostPermute > 0 {
			t.Errorf("row N=%d t=%d: masking should cost ≳ t·N bits (got %d)",
				r.N, r.LogT, r.PostRotate-r.PostPermute)
		}
		// Our measured budgets track the paper's within a modest bias
		// (noise-estimation conventions differ slightly from SEAL's).
		if diff := r.Initial - r.PaperInit; diff < -6 || diff > 14 {
			t.Errorf("row N=%d t=%d: initial budget %d vs paper %d", r.N, r.LogT, r.Initial, r.PaperInit)
		}
	}
}

func TestTable5(t *testing.T) {
	out, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
}

func TestFig2HEDominates(t *testing.T) {
	rows, err := ClientBreakdowns()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// §2.2: >99% of client software compute is HE operations.
		if share := 1 - r.AppTime/r.SEALSW; share < 0.99 {
			t.Errorf("%s: HE share %.4f < 0.99", r.Network, share)
		}
		// Partial hardware still loses badly to local compute.
		if r.HEAX < r.Local {
			t.Errorf("%s: HEAX bound (%v) should remain slower than local (%v)", r.Network, r.HEAX, r.Local)
		}
	}
	out, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
}

func TestFig12Headlines(t *testing.T) {
	out, rows, err := Fig12()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	var sumSW, sumLocal, sumPartial float64
	for _, r := range rows {
		sumSW += r.CHOCOSW / r.TACO
		sumLocal += r.Local / r.TACO
		sumPartial += r.HEAX / r.Local
	}
	n := float64(len(rows))
	// Paper: 121× average speedup over the optimized software client.
	if avg := sumSW / n; avg < 60 || avg > 260 {
		t.Errorf("average TACO speedup %.1f× outside the paper's order (121×)", avg)
	}
	// Paper: with TACO, client compute beats local inference (2.2×).
	if avg := sumLocal / n; avg < 1.0 || avg > 12 {
		t.Errorf("average TACO-vs-local %.2f× outside expectation (paper 2.2×)", avg)
	}
	// Paper: partial hardware still ~14.5× slower than local.
	if avg := sumPartial / n; avg < 5 || avg > 80 {
		t.Errorf("partial-HW vs local %.1f× outside expectation (paper 14.5×)", avg)
	}
	// The executable row: one decryption per reply — one more than the
	// model condenses to, conv2's second tile — each at one residue, so
	// the software client is still strictly cheaper.
	exec, err := ExecutableBreakdown(nn.LeNetSmall())
	if err != nil {
		t.Fatal(err)
	}
	if exec.EncOps != 3 || exec.DecOps != 4 || exec.CHOCOSW >= rows[0].CHOCOSW || !strings.Contains(out, exec.Network) {
		t.Errorf("executable LeNet-Sm row %+v against the model's %+v", exec, rows[0])
	}
}

func TestFig7(t *testing.T) {
	out, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
}

func TestFig8ShapeClaims(t *testing.T) {
	out, rows, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	// Speedup grows with parameter size; the largest shape reaches the
	// several-hundred-to-thousand× range.
	for i := 1; i < len(rows); i++ {
		if rows[i].Speedup < rows[i-1].Speedup*0.8 {
			t.Errorf("speedup not broadly increasing at row %d: %v vs %v",
				i, rows[i].Speedup, rows[i-1].Speedup)
		}
	}
	last := rows[len(rows)-1]
	if last.Speedup < 400 {
		t.Errorf("largest-shape speedup %.0f× too small (paper: up to 1094×)", last.Speedup)
	}
	if last.EnergySavings < 200 {
		t.Errorf("largest-shape energy savings %.0f× too small (paper: up to 648×)", last.EnergySavings)
	}
}

func TestFig10Range(t *testing.T) {
	out, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	if !strings.Contains(out, "Gazelle") || !strings.Contains(out, "MiniONN") {
		t.Error("missing baselines")
	}
}

func TestFig11CollapsedWinsForClient(t *testing.T) {
	out, rows, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	// Group by geometry; collapsed must minimize client time and comm,
	// while paying more server time than stacked point-major.
	byGeom := map[[2]int]map[distance.Variant]Fig11Row{}
	for _, r := range rows {
		k := [2]int{r.Dims, r.Points}
		if byGeom[k] == nil {
			byGeom[k] = map[distance.Variant]Fig11Row{}
		}
		byGeom[k][r.Variant] = r
	}
	for geom, m := range byGeom {
		collapsed := m[distance.CollapsedPointMajor]
		for v, r := range m {
			if collapsed.CommBytes > r.CommBytes {
				t.Errorf("geom %v: collapsed comm %d > %v comm %d", geom, collapsed.CommBytes, v, r.CommBytes)
			}
			if collapsed.ClientTime > r.ClientTime+1e-12 {
				t.Errorf("geom %v: collapsed client time %v > %v %v", geom, collapsed.ClientTime, v, r.ClientTime)
			}
		}
		if collapsed.ServerTime <= m[distance.StackedPointMajor].ServerTime {
			t.Errorf("geom %v: collapsed should pay extra server time", geom)
		}
	}
}

func TestFig13(t *testing.T) {
	out, err := Fig13()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	if !strings.Contains(out, "[TACO-supported]") {
		t.Error("optimal plans should fit the TACO window")
	}
}

func TestFig14EnergyShape(t *testing.T) {
	out, rows, err := Fig14()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	byName := map[string]Fig14Row{}
	for _, r := range rows {
		byName[r.Network] = r
	}
	// §5.7/§5.8: VGG gains energy (clearly so at the paper's
	// communication volume; at our heavier measured packing it must at
	// least approach break-even), SqueezeNet breaks even or loses, and
	// the MACs-per-MB ordering VGG > LeNetLg > SqzNet holds.
	vgg, sqz, lg := byName["VGG16"], byName["SqzNet"], byName["LeNetLg"]
	if vgg.PaperCommGain < 0.20 {
		t.Errorf("VGG gain at paper comm %.2f should be strongly positive (paper 37%%)", vgg.PaperCommGain)
	}
	if vgg.LocalGain < -0.25 {
		t.Errorf("VGG measured gain %.2f too far from break-even", vgg.LocalGain)
	}
	if sqz.LocalGain > 0.10 {
		t.Errorf("SqueezeNet gain %.2f should be break-even or a loss", sqz.LocalGain)
	}
	if !(vgg.LocalGain > lg.LocalGain && lg.LocalGain > sqz.LocalGain) {
		t.Errorf("MACs-per-MB ordering violated: VGG %.2f, LeNetLg %.2f, Sqz %.2f",
			vgg.LocalGain, lg.LocalGain, sqz.LocalGain)
	}
	if !strings.Contains(out, "LeNetSm-exec") || !strings.Contains(out, "76340 B on the wire, replies at 1 of 2 residues") {
		t.Error("no executable LeNet-Sm row at the reply level")
	}
	// Communication dominates end-to-end time.
	for _, r := range rows {
		if r.ChocoTime < r.LocalTime {
			t.Errorf("%s: offload time should exceed local (communication-bound)", r.Network)
		}
	}
}

func TestFig15FilterEffect(t *testing.T) {
	out, pts, err := Fig15()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("empty output")
	}
	// Filter size multiplies MACs without changing communication.
	type key struct{ img, ch int }
	f1 := map[key]Fig15Point{}
	f3 := map[key]Fig15Point{}
	for _, p := range pts {
		if p.Source != "micro" {
			continue
		}
		k := key{p.Image, p.Channels}
		if p.Filter == 1 {
			f1[k] = p
		} else if p.Filter == 3 {
			f3[k] = p
		}
	}
	checked := 0
	for k, a := range f1 {
		b, ok := f3[k]
		if !ok {
			continue
		}
		checked++
		if b.MACs != 9*a.MACs {
			t.Errorf("%v: 3×3 MACs %d != 9× 1×1 MACs %d", k, b.MACs, a.MACs)
		}
		if b.CommMB != a.CommMB {
			t.Errorf("%v: filter size changed communication (%v vs %v)", k, a.CommMB, b.CommMB)
		}
	}
	if checked == 0 {
		t.Error("no comparable microbenchmark pairs")
	}
}

func TestEncDecSpeedups(t *testing.T) {
	out := EncDecSpeedups()
	if !strings.Contains(out, "417") {
		t.Error("missing paper anchors")
	}
	t.Log("\n" + out)
}

func TestFig11Live(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, err := Fig11Live()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	if !strings.Contains(out, "collapsed point-major") {
		t.Error("missing variants")
	}
}

// TestCostSheetResidentBytes holds the cost sheet's resident_bytes column
// to the store it prices: every LeNet-Sm layer takes the product packing,
// so its kernels of 65 536 B — one for conv1 and the FC, one per tile for
// conv2's two — live in the operator, and one Apply into an empty
// PlainCache leaves it empty (it held conv2's 100 weight plaintexts of
// 98 304 B while conv2 ran on slots, and 25 and 16 for conv1 and the FC
// before them).
func TestCostSheetResidentBytes(t *testing.T) {
	ctx, err := bfv.NewContext(bfv.PresetB())
	if err != nil {
		t.Fatal(err)
	}
	rowSize, slots := ctx.Params.N()/2, ctx.Params.Slots()
	conv1, conv2, fc, err := lenetLayers(rowSize)
	if err != nil {
		t.Fatal(err)
	}
	kg := bfv.NewKeyGenerator(ctx, [32]byte{57})
	sk := kg.GenSecretKey()
	if steps := fc.RotationSteps(); len(steps) != 0 {
		t.Fatalf("LeNet-Sm's FC rotates by %v; the product packing rotates by nothing", steps)
	}
	ev := bfv.NewEvaluator(ctx, nil, nil)
	ecd := bfv.NewEncoder(ctx)
	ct, err := bfv.NewEncryptor(ctx, kg.GenPublicKey(sk), [32]byte{58}).EncryptInts(make([]int64, slots))
	if err != nil {
		t.Fatal(err)
	}
	items := []core.BatchInput{{Ev: ev, Ct: ct}}
	convApply := func(conv *core.Conv2D) func(*core.PlainCache) error {
		return func(cache *core.PlainCache) error {
			outs, _, err := conv.ApplyBatch(ecd, items, slots, cache)
			for _, group := range outs {
				for _, o := range group {
					ctx.RecycleCt(o)
				}
			}
			return err
		}
	}
	for _, tc := range []struct {
		name       string
		plan       core.RotationPlan
		plaintexts int
		size       int64 // bytes of one plaintext
		apply      func(*core.PlainCache) error
	}{
		{"conv1", conv1.Plan(), 1, 65536, convApply(conv1)},
		{"conv2", conv2.Plan(), 2, 65536, convApply(conv2)},
		{"fc", fc.Plan(fc.HoistLevel()), 1, 65536, func(cache *core.PlainCache) error {
			outs, _, err := fc.ApplyBatch(ecd, items, slots, cache)
			for _, o := range outs {
				ctx.RecycleCt(o)
			}
			return err
		}},
	} {
		cache := core.NewPlainCache(0)
		if err := tc.apply(cache); err != nil {
			t.Fatal(err)
		}
		held, want := int64(tc.plan.PlainMults)*tc.size, residentBytes(ctx, tc.plan) // the operator's kernels, not the cache's
		if tc.plan.Level != 0 || cache.Stats() != (core.PlainCacheStats{}) {
			t.Errorf("%s: plan %v, plaintext cache %+v; want the product packing, the cache unused", tc.name, tc.plan, cache.Stats())
		}
		if held != want || want != int64(tc.plaintexts)*tc.size {
			t.Errorf("%s: the sheet says resident_bytes %d, the store holds %d B after one Apply; want %d plaintexts of %d B", tc.name, want, held, tc.plaintexts, tc.size)
		}
	}
}

// TestCostSheetPredictsApply holds the cost sheet to being a model: for
// each of LeNet-Sm's linear layers at bfv-B, the RotationPlan priced from
// unit costs measured in the same process lands within 15 % of the
// measured warm Apply — nothing the executor does is left off the sheet,
// and nothing on it is priced from a cache state the executor never sees.
// Timing on a shared box: a miss is retried twice before it counts.
func TestCostSheetPredictsApply(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("times seconds of homomorphic work; meaningless under -short or the race detector")
	}
	for attempt := 1; ; attempt++ {
		report, recs, err := CostSheet()
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for _, r := range recs {
			worst = max(worst, math.Abs(r.PredictedMs/r.MeasuredMs-1))
		}
		t.Logf("attempt %d:\n%s", attempt, report)
		if len(recs) != 3 {
			t.Fatalf("%d layer records, want conv1, conv2 and fc", len(recs))
		}
		if worst <= 0.15 {
			return
		}
		if attempt == 3 {
			t.Fatalf("the plan priced from unit costs is %.0f %% off the measured warm Apply on some layer, three times over; limit 15 %%", 100*worst)
		}
	}
}
