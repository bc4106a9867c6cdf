// Fixture for the nttdomain analyzer: each violation carries a
// `// want` expectation; the corrected forms below them must stay
// silent.
package nttdomain

import "choco/internal/ring"

func directWrite(p *ring.Poly) {
	p.IsNTT = true // want `direct write to ring\.Poly\.IsNTT outside internal/ring`
	p.DeclareNTT() // the sanctioned escape hatch is fine
}

func mulCoeffsOnCoeff(r *ring.Ring) {
	a := r.NewPoly()
	b := r.NewPoly()
	out := r.NewPoly()
	r.NTT(b)
	r.MulCoeffs(a, b, out) // want `MulCoeffs requires NTT-domain operands, but a is in the coefficient domain`
}

func mulCoeffsAddWideOnCoeff(r *ring.Ring, acc *ring.WideAcc) {
	a := r.NewPoly()
	b := r.NewPoly()
	r.NTT(b)
	r.MulCoeffsAddWide(a, b, acc) // want `MulCoeffsAddWide requires NTT-domain operands, but a is in the coefficient domain`
}

// The inner-sum shape: NTT-domain operands in, an NTT-domain sum out.
func reducedSumIsNTT(r *ring.Ring, g uint64, out *ring.Poly) {
	a := r.NewPoly()
	b := r.NewPoly()
	r.NTT(a)
	r.NTT(b)
	acc := r.GetWideAcc()
	r.MulCoeffsAddWide(a, b, acc)
	sum := r.ReduceWideAcc(acc)
	r.Automorphism(sum, g, out) // want `Automorphism requires a coefficient-domain input, but sum is in the NTT domain`
}

func mulCoeffsFixed(r *ring.Ring) {
	a := r.NewPoly()
	b := r.NewPoly()
	out := r.NewPoly()
	r.NTT(a)
	r.NTT(b)
	r.MulCoeffs(a, b, out)
}

func automorphismOnNTT(r *ring.Ring, g uint64) {
	a := r.NewPoly()
	out := r.NewPoly()
	r.NTT(a)
	r.Automorphism(a, g, out) // want `Automorphism requires a coefficient-domain input, but a is in the NTT domain`
}

func automorphismFixed(r *ring.Ring, g uint64) {
	a := r.NewPoly()
	out := r.NewPoly()
	r.Automorphism(a, g, out)
}

func automorphismNTTOnCoeff(r *ring.Ring, g uint64) {
	a := r.NewPoly()
	out := r.NewPoly()
	r.AutomorphismNTT(a, g, out) // want `AutomorphismNTT requires an NTT-domain input, but a is in the coefficient domain`
}

// The hoisted key-switch shape: permute NTT-domain digits, then feed
// the NTT-domain outputs straight into the key inner product.
func automorphismNTTFixed(r *ring.Ring, g uint64, out *ring.Poly) {
	a := r.NewPoly()
	dig := r.NewPoly()
	r.NTT(a)
	r.AutomorphismNTT(a, g, dig)
	r.MulCoeffs(dig, dig, out)
}

func mixedAdd(r *ring.Ring) {
	a := r.NewPoly()
	b := r.NewPoly()
	out := r.NewPoly()
	r.NTT(a)
	r.Add(a, b, out) // want `Add mixes domains: a is NTT but b is coefficient`
}

func afterINTT(r *ring.Ring, p *ring.Poly) {
	out := r.NewPoly()
	r.NTT(p)
	r.MulCoeffs(p, p, out)
	r.INTT(p)
	r.MulCoeffs(p, p, out) // want `MulCoeffs requires NTT-domain operands, but p is in the coefficient domain`
}

// Parameters carry no domain evidence: the analyzer must stay quiet
// rather than guess.
func unknownOperands(r *ring.Ring, a, b, out *ring.Poly) {
	r.MulCoeffs(a, b, out)
	r.Add(a, b, out)
}

// A value escaping into an un-modelled call loses its evidence.
func escapeInvalidates(r *ring.Ring, out *ring.Poly) {
	a := r.NewPoly()
	transform(a)
	r.MulCoeffs(a, a, out)
}

// An explicit IsNTT test means both domains are handled.
func branchInvalidates(r *ring.Ring, out *ring.Poly) {
	a := r.NewPoly()
	if !a.IsNTT {
		r.NTT(a)
	}
	r.MulCoeffs(a, a, out)
}

func transform(p *ring.Poly) {}
