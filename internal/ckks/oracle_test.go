package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/cmplx"
)

// This file keeps the arbitrary-precision encoder the word-arithmetic one
// replaced, as the oracle its tests compare against: the canonical
// embedding with the root index recomputed per butterfly, every
// coefficient rounded through big.Float, reduced with SetCoeffsBigint,
// and composed back with PolyToBigintCentered.

// bigFromFloat rounds a float (possibly much larger than 2^63) to the
// nearest big integer, ties away from zero.
func bigFromFloat(v float64) *big.Int {
	bf := new(big.Float).SetPrec(200).SetFloat64(v)
	out, _ := bf.Int(nil)
	// big.Float.Int truncates toward zero; adjust to round-to-nearest.
	frac := new(big.Float).SetPrec(200).Sub(bf, new(big.Float).SetInt(out))
	f, _ := frac.Float64()
	if f >= 0.5 {
		out.Add(out, big.NewInt(1))
	} else if f <= -0.5 {
		out.Sub(out, big.NewInt(1))
	}
	return out
}

// floatFromBig converts a big integer to the nearest float, saturating
// at ±MaxFloat64.
func floatFromBig(v *big.Int) float64 {
	f, _ := new(big.Float).SetInt(v).Float64()
	if math.IsInf(f, 0) {
		if v.Sign() < 0 {
			return -math.MaxFloat64
		}
		return math.MaxFloat64
	}
	return f
}

// oracleRoots returns the embedding's rotation group 5^i mod 2N and the
// roots e^{2πik/2N}.
func oracleRoots(ctx *Context) ([]int, []complex128) {
	m := 2 * ctx.Params.N()
	rotGroup := make([]int, ctx.Params.Slots())
	g := 1
	for i := range rotGroup {
		rotGroup[i] = g
		g = g * 5 % m
	}
	roots := make([]complex128, m+1)
	for k := range roots {
		angle := 2 * math.Pi * float64(k) / float64(m)
		roots[k] = complex(math.Cos(angle), math.Sin(angle))
	}
	return rotGroup, roots
}

func oracleEmbedInv(ctx *Context, vals []complex128) {
	n := len(vals)
	m := 2 * ctx.Params.N()
	rotGroup, roots := oracleRoots(ctx)
	for length := n; length >= 1; length >>= 1 {
		for i := 0; i < n; i += length {
			lenh := length >> 1
			lenq := length << 2
			gap := m / lenq
			for j := 0; j < lenh; j++ {
				idx := (lenq - rotGroup[j]%lenq) * gap
				u := vals[i+j] + vals[i+j+lenh]
				v := (vals[i+j] - vals[i+j+lenh]) * roots[idx]
				vals[i+j] = u
				vals[i+j+lenh] = v
			}
		}
	}
	bitReverseComplex(vals)
	inv := complex(1/float64(n), 0)
	for i := range vals {
		vals[i] *= inv
	}
}

func oracleEmbed(ctx *Context, vals []complex128) {
	n := len(vals)
	m := 2 * ctx.Params.N()
	rotGroup, roots := oracleRoots(ctx)
	bitReverseComplex(vals)
	for length := 2; length <= n; length <<= 1 {
		for i := 0; i < n; i += length {
			lenh := length >> 1
			lenq := length << 2
			gap := m / lenq
			for j := 0; j < lenh; j++ {
				idx := (rotGroup[j] % lenq) * gap
				u := vals[i+j]
				v := vals[i+j+lenh] * roots[idx]
				vals[i+j] = u + v
				vals[i+j+lenh] = u - v
			}
		}
	}
}

// encodeOracle is EncodeComplex on the big path. Its refusals are
// decided by its own means — a non-finite slot, a non-positive or
// infinite scale, a level off the chain, a non-finite coefficient, or a
// rounded coefficient past ⌊Q_ℓ/2⌋ as a big integer — so a fast path
// that errs where this one encodes, or the reverse, is a finding.
func encodeOracle(ctx *Context, values []complex128, level int, scale float64) (*Plaintext, error) {
	nh := ctx.Params.Slots()
	if len(values) > nh || level < 0 || level > ctx.Params.MaxLevel() || !(scale > 0) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("oracle: bad shape, level or scale")
	}
	for i, v := range values {
		if cmplx.IsNaN(v) || cmplx.IsInf(v) {
			return nil, fmt.Errorf("oracle: slot %d not finite", i)
		}
	}
	buf := make([]complex128, nh)
	copy(buf, values)
	oracleEmbedInv(ctx, buf)
	r := ctx.RingAtLevel(level)
	half := r.ModulusBig()
	half.Rsh(half, 1)
	coeffs := make([]*big.Int, ctx.Params.N())
	for j := 0; j < nh; j++ {
		for k, v := range [2]float64{real(buf[j]) * scale, imag(buf[j]) * scale} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("oracle: coefficient %d not finite", j+k*nh)
			}
			c := bigFromFloat(v)
			if new(big.Int).Abs(c).Cmp(half) > 0 {
				return nil, fmt.Errorf("oracle: coefficient %d past Q/2", j+k*nh)
			}
			coeffs[j+k*nh] = c
		}
	}
	pt := &Plaintext{Poly: r.NewPoly(), Level: level, Scale: scale}
	r.SetCoeffsBigint(coeffs, pt.Poly)
	return pt, nil
}

// oracleCoeffs returns pt's coefficients' centred representatives.
func oracleCoeffs(ctx *Context, pt *Plaintext) []*big.Int {
	r := ctx.RingAtLevel(pt.Level)
	p := pt.Poly
	if p.IsNTT() {
		p = r.CopyPoly(p)
		r.INTT(p)
	}
	coeffs := make([]*big.Int, ctx.Params.N())
	r.PolyToBigintCentered(p, coeffs)
	return coeffs
}

// decodeOracle is DecodeComplex on the big path.
func decodeOracle(ctx *Context, pt *Plaintext) []complex128 {
	coeffs := oracleCoeffs(ctx, pt)
	nh := ctx.Params.Slots()
	vals := make([]complex128, nh)
	for j := range vals {
		vals[j] = complex(floatFromBig(coeffs[j])/pt.Scale, floatFromBig(coeffs[j+nh])/pt.Scale)
	}
	oracleEmbed(ctx, vals)
	return vals
}
