// Fixture for bigintloop's call rule, in the shape of the CKKS encoder
// before it moved to machine words: every encode and decode called the
// ring's big-integer helpers, whose loops were suppressed as "a
// test/setup entry point" and "not the decrypt fast path". No loop in
// this file touches math/big, so the old loop-only rule saw nothing.
package ckks

import (
	"math/big"

	// The module path, not the overlay's: the go tool resolves it too,
	// so chocolint can run over the fixtures directly.
	"choco/internal/lint/testdata/src/bigintloop/internal/ring"
)

type Encoder struct{ r *ring.Ring }

func (e *Encoder) EncodeComplex(coeffs []float64) *ring.Poly {
	vals := make([]*big.Int, len(coeffs))
	pt := e.r.NewPoly()
	e.r.SetCoeffsBigint(vals, pt) // want `call to ring\.Ring\.SetCoeffsBigint runs a math/big loop \(ring\.go:\d+\) from hot-path package`
	return pt
}

func (e *Encoder) DecodeComplex(pt *ring.Poly) []*big.Int {
	coeffs := make([]*big.Int, e.r.N)
	e.r.PolyToBigintCentered(pt, coeffs) // want `call to ring\.Ring\.PolyToBigintCentered runs a math/big loop`
	return coeffs
}

// A same-package helper holding a big loop is one call level too.
func roundAll(vs []float64) []*big.Int {
	out := make([]*big.Int, len(vs))
	for i, v := range vs { // want `loop calls math/big\.NewInt per iteration`
		out[i] = big.NewInt(int64(v))
	}
	return out
}

func (e *Encoder) encodeVia(vs []float64) {
	_ = roundAll(vs) // want `call to ckks\.roundAll runs a math/big loop`
}

// Corrected forms. A caller that states its own reason is silent.
func (e *Encoder) oracle(pt *ring.Poly, coeffs []*big.Int) {
	//lint:ignore-choco bigintloop fixture: the caller's own reason
	e.r.PolyToBigintCentered(pt, coeffs)
}

// Word-only helpers are fine to call.
func (e *Encoder) encodeWords(vs []int64) *ring.Poly {
	pt := e.r.NewPoly()
	e.r.SetCoeffsInt64(vs, pt)
	return pt
}

// A call inside a loop already reported is covered by that report.
func (e *Encoder) decodeAll(pts []*ring.Poly) {
	for _, pt := range pts { // want `loop calls math/big\.NewInt per iteration`
		coeffs := []*big.Int{big.NewInt(0)}
		e.r.PolyToBigintCentered(pt, coeffs)
	}
}
