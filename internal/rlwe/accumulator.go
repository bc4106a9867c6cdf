package rlwe

import (
	"fmt"

	"choco/internal/ring"
)

// Triple-hoisted key switching (DESIGN.md §13). The classic hoisted
// rotation path (Decomposed.Rotate) shares one digit decomposition across
// a batch, but every Galois element still pays its own inverse NTT over
// (Ql, p) and its own divide-by-P. The lazy machinery removes both:
//
//   - a QPAccumulator keeps the switching-key inner products of many
//     Galois elements summed in the extended basis, in the NTT domain, so
//     a whole giant-step sum — a slot reduction, an inner-product
//     collapse — pays one shared INTT and one mod-down at FinalizeModDown;
//   - Decomposed.RotateNTT stops a rotation before its mod-down and
//     leaves it resident over (Ql, p) in the NTT domain, where an inner
//     sum multiplies it by a plaintext lifted over the same ring and
//     divides the whole sum by P once (ModDownPair).
//
// The accumulator is byte-identical to the materialized path. The one
// nonlinear step in key switching is the centred rounding inside the
// mod-down; the accumulator keeps it exact by draining each element's
// special-prime row immediately (one single-row INTT), folding the
// centred representative into a running correction polynomial, and
// applying Σ corrections once at finalize:
//
//	Σᵢ round(xᵢ/P) = (Σᵢ xᵢ^(Ql) − Σᵢ cᵢ) · P⁻¹ (mod q)
//
// where cᵢ is the centred remainder of xᵢ's P-row — exactly the value
// the per-element path subtracts, so the sums agree coefficient for
// coefficient.

// QPAccumulator sums the key-switch products of many Galois elements of
// same-level ciphertexts in the (q0..ql, p) basis so the whole sum pays a
// single INTT + mod-down (FinalizeModDown) instead of one per element.
// Feed with Rotate (lazy rotations) and Add (unrotated terms); combine
// per-worker partials with Merge. All arithmetic is exact modular
// accumulation, so any grouping of the same terms finalizes to
// bit-identical polynomials.
type QPAccumulator struct {
	ctx   *Context
	level int

	// Σ switching-key inner products over (Ql, p), NTT domain. The data
	// rows accumulate across elements; the special-prime row is
	// per-element scratch, drained into corr and re-zeroed by each Rotate.
	acc [2]*ring.Poly

	// −Σ centred remainders of each element's special-prime row, mod Ql,
	// coefficient domain — the rounding corrections FinalizeModDown adds
	// before the shared divide by P.
	corr [2]*ring.Poly

	// Σ plain ciphertext parts: rotated c0 halves and Add operands, mod
	// Ql, coefficient domain.
	plain [2]*ring.Poly
}

// NewQPAccumulator returns an empty accumulator for ciphertexts at the
// given level, drawing its six polynomials from the ring scratch pools.
// Release or FinalizeModDown it when done.
func (ctx *Context) NewQPAccumulator(level int) *QPAccumulator {
	qa := &QPAccumulator{ctx: ctx, level: level}
	qa.acc[0], qa.acc[1] = newAccPair(ctx.ringQlP[level])
	for h := range qa.corr {
		qa.corr[h] = ctx.ringQl[level].GetPoly()
		qa.plain[h] = ctx.ringQl[level].GetPoly()
	}
	return qa
}

// Level returns the level the accumulator sums at.
func (qa *QPAccumulator) Level() int { return qa.level }

// Release returns the accumulator's buffers to the scratch pools
// without finalizing. The accumulator must not be used afterwards.
func (qa *QPAccumulator) Release() {
	for h := range qa.acc {
		qa.ctx.ringQlP[qa.level].PutPoly(qa.acc[h])
		qa.ctx.ringQl[qa.level].PutPoly(qa.corr[h])
		qa.ctx.ringQl[qa.level].PutPoly(qa.plain[h])
		qa.acc[h], qa.corr[h], qa.plain[h] = nil, nil, nil
	}
}

// Add folds a degree-1 ciphertext at the accumulator's level into the
// plain sum without any key switch (the i = 0 giant step, or any
// already-aligned term).
func (qa *QPAccumulator) Add(value []*ring.Poly) {
	rQl := qa.ctx.ringQl[qa.level]
	for h := range qa.plain {
		rQl.Add(qa.plain[h], value[h], qa.plain[h])
	}
}

// Rotate applies one lazy rotation of the decomposed ciphertext (same
// level): the switching-key inner product lands in the accumulator's
// (Ql, p) rows via the fused NTT-domain gather, the element's rounding
// correction is drained from the special-prime row, and the rotated c0
// half joins the plain sum. No full INTT, no mod-down — the whole
// accumulated sum pays those once, in FinalizeModDown.
func (qa *QPAccumulator) Rotate(dc *Decomposed, gk *GaloisKey) {
	ctx, rQl, rQlP := qa.ctx, qa.ctx.ringQl[qa.level], qa.ctx.ringQlP[qa.level]
	dc.innerProduct(gk.GaloisElement, gk.Key, qa.acc[0], qa.acc[1])
	// Drain: convert the special-prime row (holding exactly this element's
	// contribution) to the coefficient domain, fold its centred remainder
	// mod each data prime into corr, and zero the row so the next element
	// starts clean. This is the step that keeps lazy accumulation exact:
	// the mod-down's rounding is nonlinear across elements, but its
	// correction term is just the centred P-row remainder, and those sum
	// linearly.
	for h, acc := range qa.acc {
		xp := acc.Coeffs[qa.level+1]
		rQlP.NTTInverseRow(qa.level+1, xp)
		for i, m := range rQl.Moduli {
			subCentred(m, ctx.special(), xp, qa.corr[h].Coeffs[i], qa.corr[h].Coeffs[i])
		}
		clear(xp)
	}

	c0 := rQl.GetPoly()
	rQl.Automorphism(dc.value[0], gk.GaloisElement, c0)
	rQl.Add(qa.plain[0], c0, qa.plain[0])
	rQl.PutPoly(c0)
}

// Merge folds other (same level) into qa and releases other. Partial
// accumulators built by different workers over disjoint element subsets
// merge to the same bytes as a single serial accumulator: every field
// is a plain modular sum.
func (qa *QPAccumulator) Merge(other *QPAccumulator) {
	if DebugEnabled {
		qa.debugCheck("Merge")
		other.debugCheck("Merge")
	}
	rQl, rQlP := qa.ctx.ringQl[qa.level], qa.ctx.ringQlP[qa.level]
	for h := range qa.acc {
		rQlP.Add(qa.acc[h], other.acc[h], qa.acc[h])
		rQl.Add(qa.corr[h], other.corr[h], qa.corr[h])
		rQl.Add(qa.plain[h], other.plain[h], qa.plain[h])
	}
	other.Release()
}

// FinalizeModDown closes the accumulator: one inverse NTT over the
// accumulated data rows, one add-corrections-and-divide-by-P sweep, and
// the plain sums folded in. The result (from the level ring's pool) is
// byte-identical to rotating every element individually and Add-folding
// the outputs. Consumes the accumulator.
func (qa *QPAccumulator) FinalizeModDown() (c0, c1 *ring.Poly) {
	if DebugEnabled {
		qa.debugCheck("FinalizeModDown")
	}
	rQl, rQlP := qa.ctx.ringQl[qa.level], qa.ctx.ringQlP[qa.level]
	var out [2]*ring.Poly
	for h := range out {
		out[h] = rQl.GetPoly()
		for i, m := range rQl.Moduli {
			pi, pis := qa.ctx.pInvQ[i], qa.ctx.pInvQShoup[i]
			src := qa.acc[h].Coeffs[i]
			rQlP.NTTInverseRow(i, src)
			d := out[h].Coeffs[i]
			cr := qa.corr[h].Coeffs[i][:len(d)]
			pl := qa.plain[h].Coeffs[i][:len(d)]
			for k := range d {
				d[k] = m.Add(pl[k], m.MulShoup(m.Add(src[k], cr[k]), pi, pis))
			}
		}
	}
	qa.Release()
	return out[0], out[1]
}

// NTTAccumulator is the running sum of an inner sum at one level: per
// component and coefficient, the unreduced 128-bit sum over (q0..ql, p)
// of resident ciphertexts (RotateNTT, LiftNTT) times plaintexts lifted
// over the same ring (ring.WideAcc). Close with FromNTT or discard with
// RecycleNTTAccumulator.
type NTTAccumulator struct {
	level int
	acc   [2]*ring.WideAcc
}

// NewNTTAccumulator returns an empty accumulator from the key ring's pool.
func (ctx *Context) NewNTTAccumulator(level int) *NTTAccumulator {
	r := ctx.ringQlP[level]
	return &NTTAccumulator{level: level, acc: [2]*ring.WideAcc{r.GetWideAcc(), r.GetWideAcc()}}
}

// MulPlainAcc accumulates acc += x ⊙ pt without reducing: x resident at
// acc's level, pt lifted over its key ring (bfv.PlaintextMul.NTT,
// ckks.Encoder.EncodeFloatsQP). An operand without the special-prime
// row fails by name under chocodebug.
func (ctx *Context) MulPlainAcc(acc *NTTAccumulator, x []*ring.Poly, pt *ring.Poly) {
	r := ctx.ringQlP[acc.level]
	if rows := len(r.Moduli); DebugEnabled && (len(x[0].Coeffs) != rows || len(x[1].Coeffs) != rows || len(pt.Coeffs) != rows) {
		panic(fmt.Sprintf("%s: chocodebug: MulPlainAcc ciphertext has %d residue rows and plaintext %d: not both resident in the key ring of level %d (%d rows)",
			ctx.label, len(x[0].Coeffs), len(pt.Coeffs), acc.level, rows))
	}
	for h, a := range acc.acc {
		r.MulCoeffsAddWide(x[h], pt, a)
	}
}

// FromNTT closes the inner sum, consuming acc: one reduction, one inverse
// NTT per row and one divide-by-P with rounding — the only rounding the
// whole sum pays — into (c0, c1) mod Ql from the level ring's pool.
func (ctx *Context) FromNTT(acc *NTTAccumulator) (c0, c1 *ring.Poly) {
	r := ctx.ringQlP[acc.level]
	return ctx.ModDownPair(acc.level, r.ReduceWideAcc(acc.acc[0]), r.ReduceWideAcc(acc.acc[1]))
}

// RecycleNTTAccumulator returns acc to the pool without closing it.
func (ctx *Context) RecycleNTTAccumulator(acc *NTTAccumulator) {
	for _, a := range acc.acc {
		ctx.ringQlP[acc.level].PutWideAcc(a)
	}
}
