//go:build !chocodebug

package ring

import "testing"

// The twin of debug_tagged_test.go: the same invariant violations that
// panic under -tags chocodebug must pass through silently in the
// default build — the assertion layer is strictly additive and the hot
// path carries no residue scanning.

func TestOutOfRangeResidueSilentWithoutChocodebug(t *testing.T) {
	r := testRing(t, 4, []int{30, 31})
	p := randomPoly(r, 1)
	out := r.NewPoly()
	p.Coeffs[0][3] = r.Moduli[0].Value
	defer func() {
		if rec := recover(); rec != nil {
			t.Fatalf("untagged build panicked on out-of-range residue: %v", rec)
		}
	}()
	r.Add(p, p, out) // computes a (wrong) sum, but must not panic
}

func TestWideAccOverflowSilentWithoutChocodebug(t *testing.T) {
	defer func() {
		if rec := recover(); rec != nil {
			t.Fatalf("untagged build panicked on a miscounted accumulator: %v", rec)
		}
	}()
	overflowWideAcc(t) // the 65th product wraps past 2^128, silently
}

func TestDomainMismatchPanicsWithoutChocodebug(t *testing.T) {
	// Domain consistency is a release-build invariant too: MulCoeffs
	// panics on coefficient-domain operands with or without the tag.
	r := testRing(t, 4, []int{30, 31})
	a := randomPoly(r, 3)
	b := randomPoly(r, 4)
	out := r.NewPoly()
	defer func() {
		if recover() == nil {
			t.Fatalf("MulCoeffs on coefficient-domain operands must panic in every build")
		}
	}()
	r.MulCoeffs(a, b, out)
}
