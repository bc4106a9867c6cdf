package core

import (
	"fmt"

	"choco/internal/bfv"
	"choco/internal/par"
)

// FC is an encrypted fully-connected layer evaluated with the
// baby-step/giant-step diagonal method over a replicated input packing.
// Replicating the padded input vector across the ciphertext row is
// rotational redundancy taken to its limit: every rotation the layer
// needs becomes a plain cyclic rotation, with zero masking multiplies.
type FC struct {
	In, Out int
	// P is the padded input period (power of two ≥ max(In, Out)) and Po
	// the output period (power of two ≥ Out): the layer walks the Po
	// extended diagonals D_k[j] = W[j mod Po][(j+k) mod P], split into G
	// giant steps of B baby steps, and leaves slot j holding the partial
	// sum of output j mod Po over the columns j..j+Po−1 — the client adds
	// the P/Po partials of each output (ExtractOutput). A square layer
	// has Po = P: the classic diagonals, nothing to fold.
	P, Po, B, G int
	rowSize     int
	// Weights[o][i], quantized.
	Weights [][]int64
	// plains holds the operator's own prepared weight plaintexts, used
	// when ApplyBatch is handed no shared cache.
	plains *PlainCache
}

// NewFC validates dimensions against the ciphertext row size.
func NewFC(in, out int, weights [][]int64, rowSize int) (*FC, error) {
	if len(weights) != out {
		return nil, fmt.Errorf("core: weights have %d rows, want %d", len(weights), out)
	}
	for o := range weights {
		if len(weights[o]) != in {
			return nil, fmt.Errorf("core: weight row %d has %d cols, want %d", o, len(weights[o]), in)
		}
	}
	fc, err := NewFCSpecOnly(in, out, rowSize)
	if err != nil {
		return nil, err
	}
	fc.Weights = weights
	fc.plains = NewPlainCache(0)
	return fc, nil
}

// NewFCSpecOnly builds the packing/geometry side without weights (the
// client's half); Apply rejects a spec-only operator.
func NewFCSpecOnly(in, out, rowSize int) (*FC, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("core: invalid FC dims %dx%d", in, out)
	}
	p := 1
	for p < in || p < out {
		p <<= 1
	}
	if p > rowSize {
		return nil, fmt.Errorf("core: FC dimension %d exceeds row size %d", p, rowSize)
	}
	po := 1
	for po < out {
		po <<= 1
	}
	b := 1
	for b*b < po {
		b <<= 1
	}
	return &FC{In: in, Out: out, P: p, Po: po, B: b, G: po / b, rowSize: rowSize}, nil
}

// live lists the extended diagonals that can hold a weight, in order:
// d is live iff some slot j < P carries an output row j mod Po < Out and
// reads an input column (j+d) mod P < In. Diagonal 0 always is.
func (f *FC) live() []int {
	var ds []int
	for d := 0; d < f.Po; d++ {
		for j := 0; j < f.P; j++ {
			if j%f.Po < f.Out && (j+d)%f.P < f.In {
				ds = append(ds, d)
				break
			}
		}
	}
	return ds
}

// bsgs lays the layer out for applyBSGS: one output, baby steps j < B,
// giant steps i·B, keeping only the steps some live diagonal i·B + j < Po
// needs.
func (f *FC) bsgs(slots int) bsgsPlan {
	liveBaby, liveGiant := make([]bool, f.B), make([]bool, f.G)
	for _, d := range f.live() {
		liveBaby[d%f.B], liveGiant[d/f.B] = true, true
	}
	babies, giants := []int{0}, []int{0}
	for j := 1; j < f.B; j++ {
		if liveBaby[j] {
			babies = append(babies, j)
		}
	}
	for i := 1; i < f.G; i++ {
		if liveGiant[i] {
			giants = append(giants, i*f.B)
		}
	}
	return bsgsPlan{op: f, outputs: 1, babies: babies, giants: giants,
		diag: func(_, gi, bi int) []int64 { return f.diag(giants[gi], babies[bi], slots) }}
}

// flat is the textbook diagonal method as a plan: every live diagonal a
// baby rotation of the input, no giants.
func (f *FC) flat(slots int) bsgsPlan {
	babies := f.live()
	return bsgsPlan{op: f, outputs: 1, babies: babies, giants: []int{0},
		diag: func(_, _, bi int) []int64 { return f.diag(0, babies[bi], slots) }}
}

// RotationSteps lists the rotation amounts Apply uses: the baby steps
// below B and the giant steps i·B that some diagonal reaches.
func (f *FC) RotationSteps() []int { return f.bsgs(0).rotationSteps() }

// PackInput replicates the zero-padded input vector across both
// batching rows so rotations by any amount < P act as windowed
// rotations of the logical vector.
func (f *FC) PackInput(x []int64, slots int) ([]int64, error) {
	if len(x) != f.In {
		return nil, fmt.Errorf("core: input has %d elements, want %d", len(x), f.In)
	}
	if slots < 2*f.rowSize {
		return nil, fmt.Errorf("core: need %d slots, have %d", 2*f.rowSize, slots)
	}
	out := make([]int64, slots)
	for rep := 0; rep < f.rowSize/f.P; rep++ {
		copy(out[rep*f.P:], x)
	}
	copy(out[f.rowSize:2*f.rowSize], out[:f.rowSize])
	return out, nil
}

// diag returns extended diagonal giant+baby of the padded weight matrix,
// rotated right by giant (the BSGS pre-rotation the giant step undoes;
// free on the server: plaintext manipulation) and replicated across the
// row: diag[j] = W[(j−giant) mod Po][(j+baby) mod P]. Nil when every
// entry is zero.
func (f *FC) diag(giant, baby, slots int) []int64 {
	out := make([]int64, slots)
	any := false
	for j := 0; j < f.P; j++ {
		r, c := ((j-giant)%f.Po+f.Po)%f.Po, (j+baby)%f.P
		if r >= f.Out || c >= f.In || f.Weights[r][c] == 0 {
			continue
		}
		any = true
		for rep := 0; rep < f.rowSize/f.P; rep++ {
			out[rep*f.P+j] = f.Weights[r][c]
		}
	}
	if !any {
		return nil
	}
	copy(out[f.rowSize:2*f.rowSize], out[:f.rowSize])
	return out
}

// HoistLevel selects the default hoisting level for this layer's
// geometry: level 3 (QP-resident babies + QP-lazy giants) whenever
// the layer rotates at all, level 1 otherwise — a single-output layer
// has one diagonal and no rotations to hoist, so the extra machinery
// would only add transform passes.
func (f *FC) HoistLevel() int {
	if f.Po == 1 {
		return 1
	}
	return 3
}

// Apply evaluates y = W·x over the encrypted replicated packing using
// BSGS at the layer's default hoisting level (HoistLevel): ApplyBatch
// over one item with the operator's own prepared weight plaintexts.
func (f *FC) Apply(ev *bfv.Evaluator, ecd *bfv.Encoder, ct *bfv.Ciphertext, slots int) (*bfv.Ciphertext, OpCounts, error) {
	return f.ApplyAtLevel(ev, ecd, ct, slots, f.HoistLevel())
}

// ApplyAtLevel evaluates y = W·x at an explicit hoisting level:
//
//	1 — Halevi–Shoup: baby rotations share one decomposition, each
//	    giant step pays a full key switch of its partial sum. Kept as
//	    the oracle the other levels are byte-compared against.
//	2 — QP-lazy giants: giant-step key-switch products accumulate in
//	    the extended basis QP, so the whole giant sum pays one shared
//	    INTT + mod-down instead of G−1.
//	3 — QP-resident babies too: baby rotations skip their mod-down and
//	    stay in the key ring QP, where the inner sum multiplies them by
//	    weight plaintexts lifted over QP and divides by P once.
//
// Levels 1 and 2 return byte-identical ciphertexts; level 3 rounds once
// per inner sum where they round once per baby, so its bytes differ in
// the low noise bits: it decrypts to the same plaintext under no more
// noise. Every level returns the same OpCounts; the levels differ in
// physical transform and mod-down counts (Plan).
func (f *FC) ApplyAtLevel(ev *bfv.Evaluator, ecd *bfv.Encoder, ct *bfv.Ciphertext, slots, level int) (*bfv.Ciphertext, OpCounts, error) {
	outs, ops, err := f.ApplyBatchAtLevel(ecd, []BatchInput{{Ev: ev, Ct: ct}}, slots, nil, level)
	if err != nil {
		return nil, OpCounts{}, err
	}
	return outs[0], ops[0], nil
}

// applyHoisted is the level-1 oracle: the baby rotations of the
// ciphertext share one hoisted decomposition, every rotated giant pays a
// full key switch of its partial sum, and the plaintext multiplies run
// through the materialized MulPlain + Add chain with every weight
// plaintext rebuilt. It shares only the geometry (bsgs) with applyBSGS.
func (f *FC) applyHoisted(ev *bfv.Evaluator, ecd *bfv.Encoder, ct *bfv.Ciphertext, slots int) (*bfv.Ciphertext, OpCounts, error) {
	var ops OpCounts
	pl := f.bsgs(slots)

	// Baby rotations all act on the same input ciphertext, so they
	// share one hoisted decomposition (the batch fans out internally).
	babies := []*bfv.Ciphertext{ct}
	if len(pl.babies) > 1 {
		rots, err := ev.RotateRowsHoisted(ct, pl.babies[1:])
		if err != nil {
			return nil, ops, err
		}
		babies = append(babies, rots...)
		ops.Rotations += len(rots)
	}

	// Giant steps are independent too: each accumulates its own inner
	// sum in baby order and applies its own outer rotation; the final
	// fold runs serially in giant order, so the result is bit-identical
	// to the serial schedule.
	nG := len(pl.giants)
	inners := make([]*bfv.Ciphertext, nG)
	innerOps := make([]OpCounts, nG)
	innerErrs := make([]error, nG)
	par.For(nG, func(gi int) {
		var inner *bfv.Ciphertext
		for bi, baby := range babies {
			diag := pl.diag(0, gi, bi)
			if diag == nil {
				continue
			}
			pt, err := ecd.EncodeInts(diag)
			if err != nil {
				innerErrs[gi] = err
				return
			}
			term := ev.MulPlain(baby, ev.PrepareMul(pt))
			innerOps[gi].PlainMults++
			if inner == nil {
				inner = term
			} else {
				inner = ev.Add(inner, term)
				innerOps[gi].Adds++
			}
		}
		if inner != nil && gi > 0 {
			// Each giant step rotates its own partial sum — distinct
			// operands, one Galois element apiece — so there is no
			// decomposition to share at this level. What CAN be shared
			// is the tail of each key switch: levels 2/3 (applyBSGS)
			// keep the products in the extended basis QP and pay one
			// mod-down for the whole giant sum.
			r, err := ev.RotateRows(inner, pl.giants[gi])
			if err != nil {
				innerErrs[gi] = err
				return
			}
			innerOps[gi].Rotations++
			inner = r
		}
		inners[gi] = inner
	})

	var total *bfv.Ciphertext
	for gi := range inners {
		if innerErrs[gi] != nil {
			return nil, ops, innerErrs[gi]
		}
		ops.Add(innerOps[gi])
		if inners[gi] == nil {
			continue
		}
		if total == nil {
			total = inners[gi]
		} else {
			total = ev.Add(total, inners[gi])
			ops.Adds++
		}
	}
	if total == nil {
		return nil, ops, fmt.Errorf("core: output 0 has no contributing weights")
	}
	return total, ops, nil
}

// ApplyNaive evaluates the same product with the textbook diagonal
// method — the flat plan on the same executor: Po−1 rotations of the
// input instead of BSGS's ~2√Po, every weight plaintext rebuilt. Kept as
// the ablation baseline quantifying what the BSGS structure buys the
// server (DESIGN.md per-experiment index; requires the rotation keys of
// NaiveRotationSteps).
func (f *FC) ApplyNaive(ev *bfv.Evaluator, ecd *bfv.Encoder, ct *bfv.Ciphertext, slots int) (*bfv.Ciphertext, OpCounts, error) {
	if f.Weights == nil {
		return nil, OpCounts{}, fmt.Errorf("core: Apply on a spec-only FC layer (no weights)")
	}
	outs, ops, err := applyBSGS(ecd, []BatchInput{{Ev: ev, Ct: ct}}, nil, f.flat(slots), false)
	if err != nil {
		return nil, OpCounts{}, err
	}
	return outs[0][0], ops[0], nil
}

// NaiveRotationSteps lists the rotation amounts ApplyNaive uses.
func (f *FC) NaiveRotationSteps() []int { return f.flat(0).rotationSteps() }

// ExtractOutput reads the Out result values from a decoded slot vector:
// output r is the sum of its P/Po partial sums at slots r, r+Po, …,
// reduced mod t into (−t/2, t/2] — the partials are only known mod t, so
// the sum is exact whenever the true output fits that range, even where
// a partial alone wrapped.
func (f *FC) ExtractOutput(decoded []int64, t uint64) []int64 {
	out, m := make([]int64, f.Out), int64(t)
	for r := range out {
		var acc int64
		for j := r; j < f.P; j += f.Po {
			acc += decoded[j]
		}
		if acc = (acc%m + m) % m; acc > m/2 {
			acc -= m
		}
		out[r] = acc
	}
	return out
}

// PlainFC is the cleartext reference.
func PlainFC(weights [][]int64, x []int64) []int64 {
	out := make([]int64, len(weights))
	for o := range weights {
		var acc int64
		for i := range weights[o] {
			acc += weights[o][i] * x[i]
		}
		out[o] = acc
	}
	return out
}

// BSGSRotations returns the number of Galois applications (rotation
// key-switch products) one BSGS apply performs for padded dimension p:
// (B−1) baby steps plus (G−1) giant steps. What each application
// *costs* depends on the hoisting level — under level 1 every one is a
// full key switch (its own inverse NTT + mod-down) after a shared baby
// decomposition; under level 3 all B−1+G−1 of them are QP-domain lazy
// products and the whole apply pays a single full mod-down. See
// (*FC).Plan for the itemized physical work. The cost model prices
// rotations uniformly, so this count is what it consumes.
func BSGSRotations(p int) int {
	b := 1
	for b*b < p {
		b <<= 1
	}
	return (b - 1) + (p/b - 1)
}

// DiagonalRotations returns the Galois-application count of the naive
// diagonal method: p−1 rotations of one ciphertext, all sharing a
// single hoisted decomposition in ApplyNaive but each still paying a
// full key switch (inverse NTT + mod-down). Kept for the ablation
// comparison against BSGSRotations.
func DiagonalRotations(p int) int { return p - 1 }

// RotationPlan itemizes the physical key-switching work of one FC or
// Conv2D apply at a given hoisting level, for the bench output and for
// reasoning about where the transform passes go. Counts assume every
// diagonal the geometry reaches is non-zero (the worst case; zero
// diagonals only shrink them).
type RotationPlan struct {
	Level int
	// BabySteps and GiantSteps are the Galois applications
	// (BSGSRotations split into its two phases); PlainMults the plaintext
	// multiply-accumulates between them, one per reachable diagonal.
	BabySteps, GiantSteps, PlainMults int
	// Decompositions counts digit decompositions (per-residue embed +
	// forward NTTs over QP): one shared by all babies, plus one per
	// rotated giant partial sum — giant inputs differ, so their
	// decompositions cannot be shared at any level without breaking
	// byte-exactness.
	Decompositions int
	// FullKeySwitches counts Galois applications that pay their own
	// full-poly inverse NTT + mod-down.
	FullKeySwitches int
	// LazyProducts counts Galois applications kept in the extended
	// basis QP, sharing the batched mod-down.
	LazyProducts int
	// ModDowns counts the divide-by-P passes of key switches: one per full
	// key switch, one per output whose giant fold shares it. NTTModDowns
	// counts the ones that close an inner sum held over QP in the NTT
	// domain (one per inner sum, whatever its term count) — the only
	// mod-downs the babies of levels 2 and 3 cost beyond their own.
	ModDowns, NTTModDowns int
}

// Plan reports the physical work of ApplyAtLevel at the given level.
func (f *FC) Plan(level int) RotationPlan {
	pl := f.bsgs(0)
	rp := pl.sheet(level, len(pl.giants)-1)
	rp.PlainMults = len(f.live())
	return rp
}

// sheet itemizes a plan whose outputs rotate giantSteps inner sums in
// all.
func (pl bsgsPlan) sheet(level, giantSteps int) RotationPlan {
	nb, ng := pl.babySteps(), giantSteps
	rp := RotationPlan{Level: level, BabySteps: nb, GiantSteps: ng}
	if nb > 0 {
		rp.Decompositions = 1 // shared by all babies
	}
	rp.Decompositions += ng
	switch level {
	case 1:
		rp.FullKeySwitches = nb + ng
		rp.ModDowns = rp.FullKeySwitches
	case 2:
		rp.FullKeySwitches = nb
		rp.LazyProducts = ng
		rp.ModDowns = nb
	default: // level 3
		rp.LazyProducts = nb + ng
	}
	if level > 1 {
		rp.NTTModDowns = ng + pl.outputs // one per inner sum
		if ng > 0 {
			rp.ModDowns += pl.outputs // each output's giant fold shares one mod-down
		}
	}
	return rp
}

// String renders the plan the way the matmul bench prints it.
func (pl RotationPlan) String() string {
	return fmt.Sprintf("L%d: %d baby + %d giant steps, %d decompositions, %d full key-switches, %d lazy products, %d mod-downs (+%d closing inner sums)",
		pl.Level, pl.BabySteps, pl.GiantSteps, pl.Decompositions, pl.FullKeySwitches, pl.LazyProducts, pl.ModDowns, pl.NTTModDowns)
}
