package ring

import (
	"testing"

	"choco/internal/par"
)

// forceParallel drops every threshold to 1 and widens the pool so all
// ring ops take the parallel path regardless of ring size, restoring
// the defaults afterwards.
func forceParallel(t *testing.T) {
	t.Helper()
	oldT, oldC, oldE := parMinTransform, parMinCoeffwise, parMinElementary
	oldP := par.Parallelism()
	SetParallelThresholds(1, 1, 1)
	par.SetParallelism(4)
	t.Cleanup(func() {
		SetParallelThresholds(oldT, oldC, oldE)
		par.SetParallelism(oldP)
	})
}

// TestParallelOpsMatchSerial runs every parallelized ring operation
// once serially and once through the worker pool and requires
// bit-identical outputs: residue rows are independent, so any fan-out
// must be invisible in the result.
func TestParallelOpsMatchSerial(t *testing.T) {
	r := testRing(t, 8, []int{30, 30, 30, 30})
	a := randomPoly(r, 21)
	b := randomPoly(r, 22)
	g := r.GaloisElementForRotation(3)

	type op struct {
		name string
		run  func(a, b, out *Poly)
	}
	ops := []op{
		{"Add", func(a, b, out *Poly) { r.Add(a, b, out) }},
		{"Sub", func(a, b, out *Poly) { r.Sub(a, b, out) }},
		{"Neg", func(a, _, out *Poly) { r.Neg(a, out) }},
		{"MulScalar", func(a, _, out *Poly) { r.MulScalar(a, 12345, out) }},
		{"Automorphism", func(a, _, out *Poly) { r.Automorphism(a, g, out) }},
		{"NTT", func(a, _, out *Poly) { r.Copy(out, a); r.NTT(out) }},
		{"NTTRoundTrip", func(a, _, out *Poly) { r.Copy(out, a); r.NTT(out); r.INTT(out) }},
		{"MulCoeffs", func(a, b, out *Poly) {
			an, bn := r.CopyPoly(a), r.CopyPoly(b)
			r.NTT(an)
			r.NTT(bn)
			r.MulCoeffs(an, bn, out)
		}},
		{"MulCoeffs+Add", func(a, b, out *Poly) {
			an, bn := r.CopyPoly(a), r.CopyPoly(b)
			r.NTT(an)
			r.NTT(bn)
			r.Zero(out)
			out.DeclareNTT()
			mulCoeffsAdd(r, an, bn, out)
			mulCoeffsAdd(r, bn, an, out)
		}},
	}

	serial := make([]*Poly, len(ops))
	for i, o := range ops {
		serial[i] = r.NewPoly()
		o.run(a, b, serial[i])
	}

	forceParallel(t)
	for i, o := range ops {
		got := r.NewPoly()
		o.run(a, b, got)
		if !r.Equal(got, serial[i]) {
			t.Errorf("%s: parallel result differs from serial", o.name)
		}
	}
}

// TestGetPutPoly pins the scratch-pool contract: polys come back
// zeroed in the coefficient domain, and mismatched shapes are dropped
// instead of poisoning the pool.
func TestGetPutPoly(t *testing.T) {
	r := testRing(t, 6, []int{30, 30})
	p := r.GetPoly()
	if p.isNTT {
		t.Fatal("GetPoly returned an NTT-domain poly")
	}
	p.Coeffs[0][0] = 42
	p.DeclareNTT()
	r.PutPoly(p)
	q := r.GetPoly()
	if q.isNTT || q.Coeffs[0][0] != 0 {
		t.Fatal("recycled poly was not reset")
	}
	if len(q.Coeffs) != 2 || len(q.Coeffs[0]) != r.N {
		t.Fatalf("recycled poly has wrong shape: %d rows", len(q.Coeffs))
	}

	// A poly from a truncated ring must not enter the full ring's pool.
	sub := r.AtLevel(0)
	r.PutPoly(sub.NewPoly())
	w := r.GetPoly()
	if len(w.Coeffs) != 2 {
		t.Fatalf("pool returned a truncated poly with %d rows", len(w.Coeffs))
	}
	r.PutPoly(nil) // must not panic
}
