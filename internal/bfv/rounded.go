package bfv

import (
	"math/big"
	"math/bits"

	"choco/internal/ring"
)

// The rounded wire (DESIGN.md §15). A product layer's upload and reply
// carry c0 as r = round(c0·2^d/Q) mod 2^d, d bits a coefficient, where Q
// is the modulus of c0's level; the peer lifts r back to
// round(r·Q/2^d), within ½ of c0 + (c0's rounding error). Q is odd, so
// c0·2^d/Q is never a half-integer, and the map is invariant under
// c0 → c0 + kQ: the uncentered residues may be scaled, as
// decrypt_rns.go scales them.
//
// Rounding, folded. With ĥ_i = (Q/q_i)^{-1} mod q_i, c0 ≡ Σ_i x_i·ĥ_i·Q/q_i
// (mod Q) for its residues x_i, so
//
//	c0·2^d/Q ≡ Σ_i x_i·(ĥ_i·2^d/q_i)  (mod 2^d).
//
// Each constant ĥ_i·2^d/q_i is an integer ω_i < 2^d and a 64-bit fraction
// θ_i (truncated), both cut from one 128-bit fraction ⌊ĥ_i·2^128/q_i⌋ kept
// per level, so one pass runs every width: a coefficient costs one plain
// multiply x_i·ω_i (mod 2^64, then mod 2^d) and one 64×64→128 multiply
// x_i·θ_i per residue, and no modular reduction. The truncation
// underestimates the sum by less than Σ_i x_i < Σ_i q_i ulps of the
// fraction, so after adding ½ the floor can be wrong only when the
// fraction word is within that slack of carrying; those coefficients (one
// in 2^27 at bfv-B) are rounded exactly by roundOracle.
//
// Lifting. With s = (r·Q + 2^(d−1)) mod 2^d = (r·(Q mod 2^d) + 2^(d−1))
// mod 2^d, round(r·Q/2^d) = (r·Q + 2^(d−1) − s)/2^d, and q_i divides Q,
// so round(r·Q/2^d) ≡ (2^(d−1) − s)·2^{−d} (mod q_i): one plain product
// mod 2^64 for s, then one Shoup product per residue.

// roundedConsts holds the per-level constants of the rounded wire.
type roundedConsts struct {
	fracHi, fracLo []uint64 // ⌊ĥ_i·2^128/q_i⌋, the fraction ĥ_i/q_i to 128 bits
	slack          uint64   // Σ_i (q_i − 1): the truncation's bound, in ulps of θ
	qLow           uint64   // Q mod 2^64
}

// buildRoundedConsts fills the rounded-wire constants of one drop level.
func buildRoundedConsts(r *ring.Ring, hatInv []uint64) roundedConsts {
	rc := roundedConsts{fracHi: make([]uint64, len(r.Moduli)), fracLo: make([]uint64, len(r.Moduli))}
	for i, m := range r.Moduli {
		f := new(big.Int).Lsh(new(big.Int).SetUint64(hatInv[i]), 128)
		f.Div(f, new(big.Int).SetUint64(m.Value))
		rc.fracLo[i] = f.Uint64()
		rc.fracHi[i] = f.Rsh(f, 64).Uint64()
		rc.slack += m.Value - 1
	}
	rc.qLow = r.ModulusBig().Uint64()
	return rc
}

// roundedBlock is how many coefficients AppendRounded carries from
// residue row to residue row beyond the first two: two 2 KB accumulators
// that stay in the first-level cache, and a run of fields that ends on a
// word boundary at every width (ring.AppendFieldRun).
const roundedBlock = 256

// AppendRounded appends to dst the fields round(x·2^d/Q) mod 2^d of x's
// coefficients idx (every coefficient when idx is nil), d bits each in
// ring.AppendFields' layout, where x is a coefficient-domain polynomial
// at some level of the data ring and Q that level's modulus. It is the
// one pass over x that rounds and packs, a block of coefficients at a
// time. The shapes a product layer's frames take — an upload's two
// residues at every coefficient, a reply's one residue at its reads —
// run a loop of their own that keeps everything in registers (roundPair,
// roundOneAt). A block with a coefficient in the ambiguity band, and
// every other shape, takes the general loop: the residue rows past the
// second add their terms to the block's accumulators, then one loop adds
// the first two rows' terms and rounds, falling back to roundOracle.
// The general loop alone, or one loop over every row per coefficient,
// spills and takes 1.5–2× as long per upload (BenchmarkRounded),
// which moves a LeNet-Sm request's client time by 3 % (EXPERIMENTS.md
// "PR 46"). 1 ≤ d ≤ 63, and 2^d below Q.
func (ctx *Context) AppendRounded(dst []byte, x *ring.Poly, d int, idx []int) []byte {
	rc := &ctx.scalers[len(ctx.RingQ.Moduli)-len(x.Coeffs)].rounded
	n := len(x.Coeffs[0])
	if idx != nil {
		n = len(idx)
	}
	mask := uint64(1)<<d - 1
	ambiguous := ^rc.slack // a fraction word above this may carry into the integer
	row0, row1 := x.Coeffs[0], x.Coeffs[0]
	omega0, theta0 := rc.fold(0, d)
	var omega1, theta1 uint64 // a one-residue level adds row 0 again, times 0
	if len(x.Coeffs) > 1 {
		row1 = x.Coeffs[1]
		omega1, theta1 = rc.fold(1, d)
	}
	deep := len(x.Coeffs) > 2
	var whole, frac [roundedBlock]uint64
	for k0 := 0; k0 < n; k0 += roundedBlock {
		wh, fr := whole[:min(roundedBlock, n-k0)], frac[:min(roundedBlock, n-k0)]
		switch {
		case len(x.Coeffs) == 2 && idx == nil && !roundPair(wh, row0[k0:], row1[k0:], omega0, theta0, omega1, theta1, mask, rc.slack),
			len(x.Coeffs) == 1 && idx != nil && !roundOneAt(wh, row0, idx[k0:], omega0, theta0, mask, rc.slack):
			dst = ring.AppendFieldRun(dst, wh, uint(d))
			continue
		}
		if deep {
			clear(wh)
			clear(fr)
			for i, row := range x.Coeffs[2:] {
				omega, theta := rc.fold(i+2, d)
				for t := range wh {
					j := k0 + t
					if idx != nil {
						j = idx[j]
					}
					wh[t], fr[t] = roundTerm(wh[t], fr[t], row[j], omega, theta)
				}
			}
		}
		for t := range wh {
			j := k0 + t
			if idx != nil {
				j = idx[j]
			}
			var w, f uint64
			if deep {
				w, f = wh[t], fr[t]
			}
			w, f = roundTerm(w, f, row0[j], omega0, theta0)
			w, f = roundTerm(w, f, row1[j], omega1, theta1)
			f, c := bits.Add64(f, 1<<63, 0) // + ½
			w += c
			if f > ambiguous {
				w = ctx.roundOracle(x, j, d)
			}
			wh[t] = w & mask
		}
		dst = ring.AppendFieldRun(dst, wh, uint(d))
	}
	return dst
}

// roundPair is AppendRounded's loop over a block of consecutive
// coefficients of a two-residue level, in few enough registers that
// nothing spills: it writes each coefficient's field to out and reports
// whether any fraction fell in the ambiguity band, where the caller
// redoes the block with the exact fallback.
func roundPair(out, row0, row1 []uint64, omega0, theta0, omega1, theta1, mask, slack uint64) bool {
	row0, row1 = row0[:len(out)], row1[:len(out)]
	var band uint64
	for t := range out {
		v0, v1 := row0[t], row1[t]
		h0, l0 := bits.Mul64(v0, theta0)
		h1, l1 := bits.Mul64(v1, theta1)
		f, c0 := bits.Add64(l0, l1, 0)
		f, c1 := bits.Add64(f, 1<<63, 0) // + ½
		out[t] = (v0*omega0 + v1*omega1 + h0 + h1 + c0 + c1) & mask
		_, over := bits.Add64(f, slack, 0)
		band |= over // f + slack carries: f is within the slack of carrying
	}
	return band != 0
}

// roundOneAt is roundPair for the coefficients idx of a one-residue
// level, a reply's reads.
func roundOneAt(out, row []uint64, idx []int, omega, theta, mask, slack uint64) bool {
	var band uint64
	for t, j := range idx[:len(out)] {
		v := row[j]
		hi, lo := bits.Mul64(v, theta)
		f, c := bits.Add64(lo, 1<<63, 0) // + ½
		out[t] = (v*omega + hi + c) & mask
		_, over := bits.Add64(f, slack, 0)
		band |= over
	}
	return band != 0
}

// fold returns row i's constant ĥ_i·2^d/q_i as its integer part ω mod 2^d
// and its fraction θ to 64 bits, cut from the 128-bit fraction.
func (rc *roundedConsts) fold(i, d int) (omega, theta uint64) {
	return rc.fracHi[i] >> (64 - d), rc.fracLo[i]>>(64-d) | rc.fracHi[i]<<d
}

// roundTerm adds v·(ω + θ/2^64) to the accumulators (whole, frac): one
// plain product mod 2^64 and one 64×64→128 product.
func roundTerm(whole, frac, v, omega, theta uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(v, theta)
	frac, c := bits.Add64(frac, lo, 0)
	return whole + v*omega + hi + c, frac
}

// roundOracle is round(x_j·2^d/Q) mod 2^d by exact big.Int composition:
// the fallback of AppendRounded's ambiguity band, and the tests' oracle.
func (ctx *Context) roundOracle(x *ring.Poly, j, d int) uint64 {
	r := ctx.RingAtDrop(len(ctx.RingQ.Moduli) - len(x.Coeffs))
	v := new(big.Int)
	r.CoeffBigintCentered(x, j, v)
	v = roundDiv(v.Lsh(v, uint(d)), r.ModulusBig())
	return v.Mod(v, new(big.Int).Lsh(big.NewInt(1), uint(d))).Uint64()
}

// LiftRounded is AppendRounded's inverse on the receiving side: for each
// coefficient j of idx (every coefficient when idx is nil) it reads the
// field r that the decoder unpacked into x's first row at j and writes
// round(r·Q/2^d) mod q_i into every row i, Q the modulus of x's level.
// The value is within ½ of r·Q/2^d; x's other coefficients are left as
// they are. Rows are written last to first, so the first row's fields are
// read before they are overwritten.
func (ctx *Context) LiftRounded(x *ring.Poly, d int, idx []int) {
	drop := len(ctx.RingQ.Moduli) - len(x.Coeffs)
	r := ctx.RingAtDrop(drop)
	mask := uint64(1)<<d - 1
	low, half := ctx.scalers[drop].rounded.qLow&mask, uint64(1)<<(d-1) // Q mod 2^d, and ½ in units of 2^-d
	fields := x.Coeffs[0]
	for i := len(x.Coeffs) - 1; i >= 0; i-- {
		m := r.Moduli[i]
		q := m.Value
		inv := m.Pow((q+1)/2, uint64(d)) // 2^-d mod q_i
		invShoup := m.ShoupPrecomp(inv)
		bias := (mask/q+1)*q + half // a multiple of q_i at or above 2^d, plus ½
		row := x.Coeffs[i]
		if idx == nil {
			for j, v := range fields[:len(row)] {
				row[j] = m.MulShoup(bias-(v*low+half)&mask, inv, invShoup)
			}
			continue
		}
		for _, j := range idx {
			row[j] = m.MulShoup(bias-(fields[j]*low+half)&mask, inv, invShoup)
		}
	}
	x.DeclareCoeff()
}
