// Fixture for bigintloop's call rule: a hot-path ring whose big-integer
// helpers carry suppressed math/big loops. The suppressions excuse the
// loops; they do not excuse the callers.
package ring

import "math/big"

type Ring struct {
	Moduli []uint64
	N      int
}

type Poly struct {
	Coeffs [][]uint64
}

// SetCoeffsBigint has the shape of the real one: a suppressed loop.
func (r *Ring) SetCoeffsBigint(values []*big.Int, p *Poly) {
	tmp := new(big.Int)
	//lint:ignore-choco bigintloop fixture: the helper's own excuse
	for i, q := range r.Moduli {
		bq := new(big.Int).SetUint64(q)
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = tmp.Mod(values[j], bq).Uint64()
		}
	}
}

// PolyToBigintCentered likewise.
func (r *Ring) PolyToBigintCentered(p *Poly, out []*big.Int) {
	//lint:ignore-choco bigintloop fixture: the helper's own excuse
	for j := range out {
		out[j] = new(big.Int).SetUint64(p.Coeffs[0][j])
	}
}

// SetCoeffsInt64 is word arithmetic only: calling it is fine.
func (r *Ring) SetCoeffsInt64(values []int64, p *Poly) {
	for i, q := range r.Moduli {
		for j, v := range values {
			p.Coeffs[i][j] = uint64(v) % q
		}
	}
}

// NewPoly has no loop at all.
func (r *Ring) NewPoly() *Poly { return &Poly{} }
