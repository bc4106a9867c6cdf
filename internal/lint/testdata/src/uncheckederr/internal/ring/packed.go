// Fixture for the uncheckederr analyzer's ring scope: Poly.Unpack's
// error is the residue range check, so dropping it is flagged; the
// handled and explicitly discarded forms stay silent, and so does
// AppendPacked, which cannot fail.
package ring

type Poly struct{ Coeffs [][]uint64 }

func (p *Poly) Unpack(src []byte) error        { return nil }
func (p *Poly) AppendPacked(dst []byte) []byte { return dst }

func dropped(p *Poly, b []byte) {
	p.Unpack(b) // want `Unpack error dropped`
	p.AppendPacked(b)
}

func handled(p *Poly, b []byte) error {
	_ = p.Unpack(b) // explicit discard is visible in review
	return p.Unpack(b)
}
