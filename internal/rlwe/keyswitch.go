package rlwe

import (
	"sync"

	"choco/internal/nt"
	"choco/internal/par"
	"choco/internal/ring"
)

// Hybrid RNS key switching at a level l: decompose a polynomial mod Ql
// into its per-prime digits, inner-product the digits with a switching key
// over (q0..ql, p), and divide by the special prime P with rounding. One
// implementation serves both schemes and every key: a rotation gathers
// the digits under its Galois element, a relinearization under the
// identity. BFV runs it at the top level only, CKKS at whatever level its
// ciphertext has reached.

// embedDigit embeds the i-th residue row of a mod-Ql polynomial (an
// integer vector in [0, q_i)) into every residue of the (q0..ql, p)
// basis. When q_i ≤ q_j the values are already reduced mod q_j and are
// copied verbatim; only smaller target moduli pay the reduction.
func (ctx *Context) embedDigit(src []uint64, i, level int, di *ring.Poly) {
	qi := ctx.RingQ.Moduli[i].Value
	for j, m := range ctx.ringQlP[level].Moduli {
		dst := di.Coeffs[j]
		if qi <= m.Value {
			copy(dst, src)
			continue
		}
		for k := range dst {
			dst[k] = m.Reduce(src[k])
		}
	}
}

// newAccPair returns two zeroed inner-product accumulators over r,
// declared NTT-domain (the all-zero polynomial is valid in either).
func newAccPair(r *ring.Ring) (acc0, acc1 *ring.Poly) {
	acc0, acc1 = r.GetPoly(), r.GetPoly()
	acc0.DeclareNTT()
	acc1.DeclareNTT()
	return acc0, acc1
}

// ModDownPair closes a sum held over (q0..ql, p) in the NTT domain — a
// materialized key switch, or an inner sum of QP-resident terms: inverse
// NTT of both components, divide by P with rounding, the inputs back to
// the key ring's pool. The results come from the level ring's pool.
func (ctx *Context) ModDownPair(level int, acc0, acc1 *ring.Poly) (d0, d1 *ring.Poly) {
	rQlP := ctx.ringQlP[level]
	rQlP.INTT(acc0)
	rQlP.INTT(acc1)
	d0, d1 = ctx.modDown(level, acc0), ctx.modDown(level, acc1)
	rQlP.PutPoly(acc0)
	rQlP.PutPoly(acc1)
	return d0, d1
}

// subCentred is where a divide-by-a-prime rounds. xp is the row of a
// coefficient-domain polynomial modulo the prime p being divided out; for
// another prime m of the basis it computes dst[k] = src[k] − c[k] mod q,
// where c is the centred representative of xp[k] mod p reduced mod q:
// values above p/2 stand for t − p ≡ Reduce(t) − Reduce(p), which shares
// the canonical-form Reduce with the small case; when p ≤ q, t is already
// a residue mod q and needs no Reduce at all (the divide-by-last-prime of
// a chain whose primes descend). Subtracting c leaves an exact multiple of
// p, so the callers only have to multiply by p⁻¹; src and dst may be the
// same row.
func subCentred(m nt.Modulus, p uint64, xp, src, dst []uint64) {
	halfP, pModQ, reduced := p>>1, m.Reduce(p), p <= m.Value
	xp, src = xp[:len(dst)], src[:len(dst)]
	for k := range dst {
		t := xp[k]
		c := t
		if !reduced {
			c = m.Reduce(t)
		}
		if t > halfP {
			c = m.Sub(c, pModQ)
		}
		dst[k] = m.Sub(src[k], c)
	}
}

// divRoundRow is subCentred and the multiplication by p⁻¹ mod q (inv, with
// its Shoup companion) in one pass over the row: dst = round(x/p) mod q.
func divRoundRow(m nt.Modulus, p, inv, invShoup uint64, xp, src, dst []uint64) {
	halfP, pModQ, reduced := p>>1, m.Reduce(p), p <= m.Value
	xp, src = xp[:len(dst)], src[:len(dst)]
	for k := range dst {
		t := xp[k]
		c := t
		if !reduced {
			c = m.Reduce(t)
		}
		if t > halfP {
			c = m.Sub(c, pModQ)
		}
		dst[k] = m.MulShoup(m.Sub(src[k], c), inv, invShoup)
	}
}

// scaleRow multiplies a residue row by the constant c in place.
func scaleRow(m nt.Modulus, c uint64, row []uint64) {
	cs := m.ShoupPrecomp(c)
	for k := range row {
		row[k] = m.MulShoup(row[k], c, cs)
	}
}

// modDown maps x mod Ql·P to round(x/P) mod Ql (coefficient domain),
// returning a poly from the level ring's pool.
func (ctx *Context) modDown(level int, x *ring.Poly) *ring.Poly {
	rQl := ctx.ringQl[level]
	out := rQl.GetPoly()
	for i, m := range rQl.Moduli {
		divRoundRow(m, ctx.special(), ctx.pInvQ[i], ctx.pInvQShoup[i], x.Coeffs[level+1], x.Coeffs[i], out.Coeffs[i])
	}
	return out
}

// DivRoundByLastModulus divides p (coefficient domain, at the given
// level ≥ 1) by its last prime q_l with rounding and returns the result
// one level down, from that level ring's pool: the arithmetic under
// CKKS's Rescale and BFV's ModSwitchDown, and the same step as the
// divide-by-P with q_l in P's place.
func (ctx *Context) DivRoundByLastModulus(p *ring.Poly, level int) *ring.Poly {
	rOut := ctx.ringQl[level-1]
	qL := ctx.RingQ.Moduli[level].Value
	out := rOut.GetPoly()
	for i, m := range rOut.Moduli {
		divRoundRow(m, qL, ctx.qInvQ[level][i], ctx.qInvQShoup[level][i], p.Coeffs[level], p.Coeffs[i], out.Coeffs[i])
	}
	return out
}

// DivRoundByLastModulusNTT is DivRoundByLastModulus for an NTT-domain p,
// with an NTT-domain result: only the last row goes back to the
// coefficient domain, its centred lift is transformed into each lower
// row, and the divide runs there — round(x/q_l) ≡ (x − c)·q_l⁻¹ row by
// row, and the transform is linear — so the result is the transform of
// DivRoundByLastModulus's, word for word. p's last row is left in the
// coefficient domain.
func (ctx *Context) DivRoundByLastModulusNTT(p *ring.Poly, level int) *ring.Poly {
	rOut := ctx.ringQl[level-1]
	qL := ctx.RingQ.Moduli[level].Value
	xL := p.Coeffs[level]
	ctx.RingQ.NTTInverseRow(level, xL)
	out := rOut.GetPoly() // zero: subCentred leaves −c in each row
	for i, m := range rOut.Moduli {
		o, y := out.Coeffs[i], p.Coeffs[i]
		subCentred(m, qL, xL, o, o)
		rOut.NTTForwardRow(i, o)
		inv, invShoup := ctx.qInvQ[level][i], ctx.qInvQShoup[level][i]
		for k := range o {
			o[k] = m.MulShoup(m.Add(y[k], o[k]), inv, invShoup)
		}
	}
	out.DeclareNTT()
	return out
}

// LiftNTT returns P·NTT(p) over (q0..ql, p) for a coefficient-domain
// polynomial p mod Ql, from the key ring's pool: the form in which a
// polynomial that never went through a key switch sits beside the
// QP-resident rotations of Decomposed.RotateNTT. Its special-prime row is
// zero — P·p ≡ 0 mod P — so dividing it by P again is exact.
func (ctx *Context) LiftNTT(level int, p *ring.Poly) *ring.Poly {
	rQl := ctx.ringQl[level]
	out := ctx.ringQlP[level].GetPoly()
	for i, m := range rQl.Moduli {
		copy(out.Coeffs[i], p.Coeffs[i])
		scaleRow(m, m.Reduce(ctx.special()), out.Coeffs[i])
		rQl.NTTForwardRow(i, out.Coeffs[i])
	}
	out.DeclareNTT()
	return out
}

// Decomposed is the hoisted (Halevi–Shoup) form of a degree-1 ciphertext
// at some level: the per-prime RNS digits of c1, embedded into the
// (q0..ql, p) basis and forward-NTT-transformed once. Every rotation of
// the same ciphertext would otherwise pay that decomposition again;
// holding it here lets a batch of k rotations pay it once,
// with each Galois element applied to the digits directly in the NTT
// domain (a slot permutation) before the switching-key inner product.
// Call Release when done — the digit buffers come from the key ring's
// scratch pool.
type Decomposed struct {
	ctx    *Context
	level  int
	value  []*ring.Poly // the source (c0, c1), referenced, not copied
	digits []*ring.Poly // one per prime q0..ql, over (Ql, p), NTT domain

	// c0Lift is LiftNTT(c0), the other half hoisted: QP-resident
	// rotations gather it per Galois element instead of each paying an
	// automorphism plus a forward NTT of c0. Built on the first such
	// rotation (the materialized paths never need it), released with
	// the digits.
	c0Once sync.Once
	c0Lift *ring.Poly
}

// Decompose performs the per-residue embedding and forward NTTs of
// value's c1 once, filling dc (a zero Decomposed, which the schemes embed
// beside their own ciphertext so the hoisted state is one object) with
// the state shared by all subsequent rotations. value must be a degree-1
// ciphertext at the given level; it is referenced, not copied. dc is safe
// for concurrent use by multiple rotations once built.
func (ctx *Context) Decompose(dc *Decomposed, value []*ring.Poly, level int) {
	rQlP := ctx.ringQlP[level]
	dc.ctx, dc.level, dc.value = ctx, level, value
	dc.digits = make([]*ring.Poly, level+1)
	// Digits are independent; fan them out. Each NTT also fans its
	// residue rows internally when it is the only level running.
	par.For(level+1, func(i int) {
		di := rQlP.GetPoly()
		ctx.embedDigit(value[1].Coeffs[i], i, level, di)
		rQlP.NTT(di)
		dc.digits[i] = di
	})
}

// Level returns the level the ciphertext was decomposed at.
func (dc *Decomposed) Level() int { return dc.level }

// Release returns the digit buffers (and the hoisted lift of c0, if any
// rotation built it) to the key ring's scratch pool. The Decomposed must
// not be used afterwards.
func (dc *Decomposed) Release() {
	rQlP := dc.ctx.ringQlP[dc.level]
	for _, d := range dc.digits {
		rQlP.PutPoly(d)
	}
	dc.digits = nil
	rQlP.PutPoly(dc.c0Lift)
	dc.c0Lift = nil
}

// liftC0 returns LiftNTT(c0), building it on first use. Safe for
// concurrent callers; the result is read-only.
func (dc *Decomposed) liftC0() *ring.Poly {
	dc.c0Once.Do(func() { dc.c0Lift = dc.ctx.LiftNTT(dc.level, dc.value[0]) })
	return dc.c0Lift
}

// innerProduct adds the inner product of the digits under the
// automorphism g with swk into (acc0, acc1): the fused NTT-domain gather
// of each digit against the key's level view. Decomposition and
// automorphism are both coefficient-wise, so they commute, and in the
// evaluation domain the automorphism is a signless gather: permuting the
// hoisted digits yields exactly the digits of φ_g(c1) the unhoisted path
// computes (DESIGN.md §7). Under g = 1 the gather is the identity.
func (dc *Decomposed) innerProduct(g uint64, swk *SwitchingKey, acc0, acc1 *ring.Poly) {
	rQlP := dc.ctx.ringQlP[dc.level]
	key := swk.at(dc.ctx, dc.level)
	for i, d := range dc.digits {
		rQlP.AutomorphismNTTMulShoupAdd2(d, g, key.b[i], key.bShoup[i], acc0, key.a[i], key.aShoup[i], acc1)
	}
}

// SwitchKey switches the decomposed polynomial from the secret swk was
// made for to s: the inner product under the identity element, then the
// divide by P. Relinearization decomposes c2 and switches it with the
// relinearization key. The results come from the level ring's pool.
func (dc *Decomposed) SwitchKey(swk *SwitchingKey) (d0, d1 *ring.Poly) {
	acc0, acc1 := newAccPair(dc.ctx.ringQlP[dc.level])
	dc.innerProduct(1, swk, acc0, acc1)
	return dc.ctx.ModDownPair(dc.level, acc0, acc1)
}

// Rotate runs one Galois element over the hoisted digits: inner product
// against that element's switching key, shared INTT, divide by P, and
// the (cheap, table-driven) coefficient-domain automorphism of c0. Safe
// for concurrent calls on the same Decomposed — the digits are read-only
// and all scratch is call-local. The output polynomials are drawn from
// the level ring's scratch pool. Routing the single-element rotation and
// the batch through this one function is what makes a serial rotation
// loop and a hoisted batch byte-identical by construction.
func (dc *Decomposed) Rotate(gk *GaloisKey) (c0, c1 *ring.Poly) {
	ctx, rQl := dc.ctx, dc.ctx.ringQl[dc.level]
	acc0, acc1 := newAccPair(ctx.ringQlP[dc.level])
	dc.innerProduct(gk.GaloisElement, gk.Key, acc0, acc1)
	d0, d1 := ctx.ModDownPair(dc.level, acc0, acc1)

	c0 = rQl.GetPoly()
	rQl.Automorphism(dc.value[0], gk.GaloisElement, c0)
	rQl.Add(c0, d0, c0)
	rQl.PutPoly(d0)
	return c0, d1
}

// RotateNTT is Rotate stopped before its divide-by-P: the rotation stays
// resident in the key ring (q0..ql, p), NTT domain, as
//
//	(ip₀ + P·φ_g(c₀), ip₁)
//
// — the switching-key inner product with the hoisted lift of c0 gathered
// under the same Galois element (NTT(φ_g(c0)) and the evaluation-domain
// permutation of NTT(c0) are the same residues). Its phase is P times the
// rotated ciphertext's plus the key-switch error, so ModDownPair of it is
// Rotate's output byte for byte, and ModDownPair of a sum of such
// rotations, each multiplied by a plaintext lifted over the same ring,
// rounds once where mod-downs per rotation would round once each and
// scale every rounding error by its plaintext (DESIGN.md §13). The
// results come from the key ring's pool.
func (dc *Decomposed) RotateNTT(gk *GaloisKey) (c0, c1 *ring.Poly) {
	rQlP := dc.ctx.ringQlP[dc.level]
	c0, c1 = newAccPair(rQlP)
	rQlP.AutomorphismNTT(dc.liftC0(), gk.GaloisElement, c0)
	dc.innerProduct(gk.GaloisElement, gk.Key, c0, c1)
	return c0, c1
}
