package bfv

import (
	"math/big"
	"math/bits"

	"choco/internal/ring"
)

// This file implements RNS-native decryption scaling: computing
// m_j = round(t·x_j/Q) mod t directly from the RNS residues of the
// decryption phase x = [c0 + c1·s + ...]_q, with no big.Int on the hot
// path. It is the software analogue of the CHOCO-TACO decryption
// pipeline, which likewise never composes the CRT.
//
// Derivation. Write x's CRT composition over the active moduli
// q_0..q_{L-1} (Q = ∏ q_i, Ĥ_i = Q/q_i, ĥ_i = Ĥ_i^{-1} mod q_i):
//
//	x ≡ Σ_i y_i·Ĥ_i (mod Q),  y_i = x_i·ĥ_i mod q_i.
//
// The map x ↦ round(t·x/Q) mod t is invariant under x → x + kQ
// (adding kQ shifts the argument by exactly k·t), and — because Q is a
// product of odd primes — t·x/Q is never an exact half-integer, so
// every rounding convention agrees and the invariance is
// unconditional. We may therefore scale the uncentered representative
// Σ y_i·Ĥ_i instead of the centered one the big.Int oracle uses.
// Splitting t·Ĥ_i/Q = ω_i + θ_i into integer part ω_i ∈ [0, t) and
// fraction θ_i ∈ [0, 1):
//
//	round(t·x/Q) ≡ Σ_i y_i·ω_i + round(Σ_i y_i·θ_i)  (mod t).
//
// The first sum is exact mod-t arithmetic. The second is accumulated
// in 128-bit fixed point (Θ_i = floor(θ_i·2^128), one 192-bit
// accumulator built from bits.Mul64/Add64). Each Θ_i underestimates
// θ_i by < 2^-128, so after multiplying by y_i < 2^61 and summing
// L ≤ 7 terms the accumulated value underestimates the true fraction
// by strictly less than 2^64 ulps of the 128-bit fraction. After
// adding ½, the floor can therefore only be wrong if the top fraction
// word is all-ones — a 2^-64 sliver per coefficient — and those
// coefficients fall back to an exact per-coefficient big.Int
// composition (ring.CoeffBigintCentered). L > maxScaleResidues uses
// the full oracle: beyond that the one-sided error bound and the
// 192-bit accumulator no longer hold.

// maxScaleResidues bounds the residue count for the fixed-point fast
// path; both the 192-bit accumulator (L·2^189 < 2^192) and the
// boundary-detection bound (L·2^61 < 2^64) require L ≤ 7.
const maxScaleResidues = 7

// rnsScaler holds the per-residue decryption scaling constants for one
// drop level. All slices have length L = active residues.
type rnsScaler struct {
	hatInv      []uint64 // ĥ_i = (Q/q_i)^{-1} mod q_i
	hatInvShoup []uint64 // Shoup companion of ĥ_i
	omegaT      []uint64 // ω_i = floor(t·Ĥ_i/Q) ∈ [0, t)
	thetaHi     []uint64 // Θ_i = floor(frac(t·Ĥ_i/Q)·2^128), high word
	thetaLo     []uint64 // Θ_i low word
}

// buildRNSScalers precomputes one rnsScaler per drop level. Setup-time
// big.Int arithmetic; runs once per Context.
func buildRNSScalers(ctx *Context) []rnsScaler {
	nData := len(ctx.RingQ.Moduli)
	scalers := make([]rnsScaler, nData)
	bigT := new(big.Int).SetUint64(ctx.T.Value)
	for d := 0; d < nData; d++ {
		r := ctx.RingAtDrop(d)
		L := len(r.Moduli)
		sc := &scalers[d]
		sc.hatInv = make([]uint64, L)
		sc.hatInvShoup = make([]uint64, L)
		sc.omegaT = make([]uint64, L)
		sc.thetaHi = make([]uint64, L)
		sc.thetaLo = make([]uint64, L)
		bigQ := r.ModulusBig()
		for i, m := range r.Moduli {
			qi := new(big.Int).SetUint64(m.Value)
			hat := new(big.Int).Div(bigQ, qi)
			hatInv := new(big.Int).ModInverse(new(big.Int).Mod(hat, qi), qi)
			sc.hatInv[i] = hatInv.Uint64()
			sc.hatInvShoup[i] = m.ShoupPrecomp(sc.hatInv[i])
			tH := new(big.Int).Mul(bigT, hat)
			omega, rho := new(big.Int).QuoRem(tH, bigQ, new(big.Int))
			sc.omegaT[i] = omega.Uint64() // < t since Ĥ_i < Q
			theta := rho.Lsh(rho, 128)
			theta.Div(theta, bigQ)
			sc.thetaLo[i] = theta.Uint64()
			sc.thetaHi[i] = theta.Rsh(theta, 64).Uint64()
		}
	}
	return scalers
}

// scaleCenteredInto writes m_j = round(t·x_j/Q) mod t for every
// coefficient of the phase polynomial x (coefficient domain, at the
// given drop level) into out, or, when idx is not nil, for the
// coefficients idx alone, leaving out's others as they were. Flat uint64
// pass; allocation-free outside the near-boundary oracle fallback.
func (ctx *Context) scaleCenteredInto(x *ring.Poly, drop int, idx []int, out []uint64) {
	r := ctx.RingAtDrop(drop)
	L := len(x.Coeffs)
	if L > maxScaleResidues {
		// The fixed-point bounds need L ≤ 7; a wider ring (no preset has one) takes the exact oracle.
		ctx.scaleOracleInto(r, x, out)
		return
	}
	sc := &ctx.scalers[drop]
	t := ctx.T
	moduli := r.Moduli
	n := len(out)
	if idx != nil {
		n = len(idx)
	}
	for k := 0; k < n; k++ {
		j := k
		if idx != nil {
			j = idx[k]
		}
		var s0, s1, s2, accT uint64
		for i := 0; i < L; i++ {
			m := moduli[i]
			y := m.MulShoup(x.Coeffs[i][j], sc.hatInv[i], sc.hatInvShoup[i])
			accT = t.Add(accT, t.Mul(t.Reduce(y), sc.omegaT[i]))
			hi, lo := bits.Mul64(y, sc.thetaLo[i])
			var c uint64
			s0, c = bits.Add64(s0, lo, 0)
			s1, c = bits.Add64(s1, hi, c)
			s2 += c
			hi, lo = bits.Mul64(y, sc.thetaHi[i])
			s1, c = bits.Add64(s1, lo, 0)
			s2 += hi + c
		}
		// Round: add ½ (= 2^127 in the fixed-point fraction).
		var c uint64
		s1, c = bits.Add64(s1, 1<<63, 0)
		s2 += c
		if s1 == ^uint64(0) {
			// The one-sided truncation error (< 2^64 fraction ulps)
			// could carry across the integer boundary: resolve exactly.
			out[j] = ctx.roundCoeffOracle(r, x, j)
			continue
		}
		_ = s0 // participates only through its carry into s1
		out[j] = t.Add(accT, t.Reduce(s2))
	}
}

// roundCoeffOracle computes round(t·x_j/Q) mod t for a single
// coefficient by exact big.Int composition. Called only for the
// ~2^-64-probability ambiguity band of the fixed-point fast path.
func (ctx *Context) roundCoeffOracle(r *ring.Ring, x *ring.Poly, j int) uint64 {
	v := new(big.Int)
	r.CoeffBigintCentered(x, j, v)
	bigT := new(big.Int).SetUint64(ctx.T.Value)
	v.Mul(v, bigT)
	m := roundDiv(v, r.ModulusBig())
	m.Mod(m, bigT)
	return m.Uint64()
}

// scaleOracleInto is the big.Int reference scaling (the pre-RNS
// implementation): centered CRT composition followed by rational
// rounding per coefficient. It remains the correctness oracle for the
// fast path and the fallback for rings wider than maxScaleResidues.
func (ctx *Context) scaleOracleInto(r *ring.Ring, x *ring.Poly, out []uint64) {
	vals := make([]*big.Int, r.N)
	r.PolyToBigintCentered(x, vals)
	bigQ := r.ModulusBig()
	bt := new(big.Int).SetUint64(ctx.T.Value)
	num := new(big.Int)
	for j, v := range vals {
		num.Mul(v, bt)
		m := roundDiv(num, bigQ)
		m.Mod(m, bt)
		out[j] = m.Uint64()
	}
}
