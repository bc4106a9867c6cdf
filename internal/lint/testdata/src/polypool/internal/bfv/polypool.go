// Fixture for the polypool analyzer: ring pool scratch (GetPoly) must
// be handed back with PutPoly on every exit path or escape to an owner
// the analyzer can't see. The corrected forms double as silence proofs.
package bfv

import (
	"errors"

	"choco/internal/ring"
)

// Leak: taken from the pool, used, never returned, never escapes.
func neverReturned(r *ring.Ring, a *ring.Poly) {
	p := r.GetPoly() // want `never returned with PutPoly`
	r.Add(a, a, p)
}

// Leak on one path: the early error return skips the PutPoly.
func earlyReturnSkipsPut(r *ring.Ring, a *ring.Poly, fail bool) error {
	p := r.GetPoly() // want `not returned with PutPoly on every exit path`
	r.Add(a, a, p)
	if fail {
		return errors.New("bail")
	}
	r.PutPoly(p)
	return nil
}

// Leak: the put is conditional, so falling off the end can skip it.
func conditionalPut(r *ring.Ring, a *ring.Poly, ok bool) {
	p := r.GetPoly() // want `not returned with PutPoly on every exit path`
	r.Add(a, a, p)
	if ok {
		r.PutPoly(p)
	}
}

// Straight-line put before the only exit is fine.
func straightLine(r *ring.Ring, a *ring.Poly) {
	p := r.GetPoly()
	r.Add(a, a, p)
	r.PutPoly(p)
}

// A deferred put covers every later exit, early returns included.
func deferredPut(r *ring.Ring, a *ring.Poly, fail bool) error {
	p := r.GetPoly()
	defer r.PutPoly(p)
	r.Add(a, a, p)
	if fail {
		return errors.New("bail")
	}
	return nil
}

// Escape by return: ownership moves to the caller.
func escapesByReturn(r *ring.Ring, a *ring.Poly) *ring.Poly {
	p := r.GetPoly()
	r.Add(a, a, p)
	return p
}

// Escape by storage: a Release-style owner will put it later.
func escapesIntoSlice(r *ring.Ring, digits []*ring.Poly) {
	p := r.GetPoly()
	r.NTT(p)
	digits[0] = p
}

// Escape into a composite literal: the aggregate owns the polys now,
// and the range loop puts each one back under another name.
func escapesIntoLiteral(r *ring.Ring) {
	t0 := r.GetPoly()
	t1 := r.GetPoly()
	for _, tp := range []*ring.Poly{t0, t1} {
		r.NTT(tp)
		r.PutPoly(tp)
	}
}

// Escape into an unknown callee, which may retain the poly.
func escapesIntoCall(r *ring.Ring) {
	p := r.GetPoly()
	consume(p)
}

// Escape by closure capture: the literal may run after the function.
func escapesIntoClosure(r *ring.Ring) func() {
	p := r.GetPoly()
	return func() { r.PutPoly(p) }
}

// Leak: the accumulator's two planes are abandoned when the sum is not
// wanted; the reduced poly of the other path goes back as any pool poly.
func wideAccDropped(r *ring.Ring, a, b *ring.Poly, want bool) {
	acc := r.GetWideAcc() // want `does not reach ReduceWideAcc or PutWideAcc on every exit path`
	r.MulCoeffsAddWide(a, b, acc)
	if !want {
		return
	}
	sum := r.ReduceWideAcc(acc)
	r.PutPoly(sum)
}

// Leak: ReduceWideAcc consumed the accumulator, but what it returns is a
// pool poly like any other.
func reducedNeverReturned(r *ring.Ring, a, b *ring.Poly) {
	acc := r.GetWideAcc()
	r.MulCoeffsAddWide(a, b, acc)
	sum := r.ReduceWideAcc(acc) // want `never returned with PutPoly`
	r.INTT(sum)
}

// Either exit hands the planes back.
func wideAccReleased(r *ring.Ring, a, b *ring.Poly, want bool) {
	acc := r.GetWideAcc()
	r.MulCoeffsAddWide(a, b, acc)
	if !want {
		r.PutWideAcc(acc)
		return
	}
	r.PutPoly(r.ReduceWideAcc(acc))
}

func consume(*ring.Poly) {}
