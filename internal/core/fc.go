package core

import (
	"fmt"

	"choco/internal/bfv"
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

// HoistLevel is the hoisting level Apply runs — 3: babies resident in QP
// off one shared decomposition, one rounding per inner sum, giants
// folded lazily in QP under one mod-down (DESIGN.md §13). It is the
// level to price with Plan; level 1, the Halevi–Shoup schedule, lives in
// the tests as the oracle Apply is measured against.
func (f *FC) HoistLevel() int { return 3 }

// Apply evaluates y = W·x over the encrypted replicated packing on the
// BSGS schedule: ApplyBatch over one item with the operator's own
// prepared weight plaintexts.
func (f *FC) Apply(ev *bfv.Evaluator, ecd *bfv.Encoder, ct *bfv.Ciphertext, slots int) (*bfv.Ciphertext, OpCounts, error) {
	outs, ops, err := f.ApplyBatch(ecd, []BatchInput{{Ev: ev, Ct: ct}}, slots, nil)
	if err != nil {
		return nil, OpCounts{}, err
	}
	return outs[0], ops[0], nil
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
	outs, ops, err := applyBSGS(ecd, []BatchInput{{Ev: ev, Ct: ct}}, nil, f.flat(slots))
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
// (B−1) baby steps plus (G−1) giant steps. Apply keeps all of them in QP
// as lazy products under a single full mod-down; (*FC).Plan itemizes the
// physical work. The cost model prices rotations uniformly, so this
// count is what it consumes.
func BSGSRotations(p int) int {
	b := 1
	for b*b < p {
		b <<= 1
	}
	return (b - 1) + (p/b - 1)
}

// DiagonalRotations returns the Galois-application count of the naive
// diagonal method (ApplyNaive): p−1 rotations of one ciphertext. Kept for
// the ablation comparison against BSGSRotations.
func DiagonalRotations(p int) int { return p - 1 }

// RotationPlan itemizes the physical key-switching work of one FC or
// Conv2D apply at a given hoisting level, for the cost sheet and for
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
	// forward NTTs over QP): one of the input, plus one per rotated giant
	// partial sum — giant inputs differ, so their decompositions cannot be
	// shared without breaking byte-exactness.
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
	// mod-downs QP-resident babies cost.
	ModDowns, NTTModDowns int
}

// Plan reports the physical work of one FC apply: at HoistLevel (3) the
// schedule Apply runs, at level 1 the Halevi–Shoup schedule the tests
// compare it against.
func (f *FC) Plan(level int) RotationPlan {
	pl := f.bsgs(0)
	rp := pl.sheet(level, len(pl.giants)-1)
	rp.PlainMults = len(f.live())
	return rp
}

// sheet itemizes a plan whose outputs rotate giantSteps inner sums in
// all, at level 1 (every Galois application a full key switch, babies
// sharing a decomposition when there are any) or on the executor's
// schedule (any other level).
func (pl bsgsPlan) sheet(level, giantSteps int) RotationPlan {
	nb, ng := pl.babySteps(), giantSteps
	rp := RotationPlan{Level: level, BabySteps: nb, GiantSteps: ng, Decompositions: ng}
	if level == 1 {
		if nb > 0 {
			rp.Decompositions++
		}
		rp.FullKeySwitches = nb + ng
		rp.ModDowns = rp.FullKeySwitches
		return rp
	}
	rp.Decompositions++ // the executor decomposes every input
	rp.LazyProducts = nb + ng
	rp.NTTModDowns = ng + pl.outputs // one per inner sum
	if ng > 0 {
		rp.ModDowns = pl.outputs // each output's giant fold shares one mod-down
	}
	return rp
}

// String renders the plan the way the cost sheet prints it.
func (pl RotationPlan) String() string {
	return fmt.Sprintf("L%d: %d baby + %d giant steps, %d decompositions, %d full key-switches, %d lazy products, %d mod-downs (+%d closing inner sums)",
		pl.Level, pl.BabySteps, pl.GiantSteps, pl.Decompositions, pl.FullKeySwitches, pl.LazyProducts, pl.ModDowns, pl.NTTModDowns)
}
