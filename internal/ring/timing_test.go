package ring

import (
	"testing"
	"time"
)

// mulScalarBound is the most Ring.MulScalar may cost against MulCoeffs of
// the same shape. Both make one modular multiply per coefficient; the
// scalar's is a Shoup multiply, and it measures 0.2 to 0.5 times the
// dyadic product, vector kernels or not. A product through big.Int per
// coefficient, which allocates nothing once it reuses its temporaries,
// measures 11 to 16 times.
const mulScalarBound = 2

// TestMulScalarTiming is the timing gate of the RNS kernels' no-math/big
// rule where an allocation test cannot see it: Ring.MulScalar against
// MulCoeffs on bfv-B's ring, each the minimum of several timed runs.
func TestMulScalarTiming(t *testing.T) {
	if raceEnabled {
		t.Skip("timings are not meaningful under the race detector")
	}
	r := testRing(t, 12, []int{36, 36, 37})
	a, b, out := r.NewPoly(), r.NewPoly(), r.NewPoly()
	for i, m := range r.Moduli {
		for j := range a.Coeffs[i] {
			a.Coeffs[i][j] = uint64(j+1) * 0x9e3779b97f4a7c15 % m.Value
			b.Coeffs[i][j] = uint64(j+7) * 0xbf58476d1ce4e5b9 % m.Value
		}
	}
	r.NTT(a)
	r.NTT(b)
	fastest := func(f func()) time.Duration {
		best := time.Duration(1<<63 - 1)
		for range 9 {
			start := time.Now()
			for range 16 {
				f()
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	scalar := fastest(func() { r.MulScalar(a, 0x9e3779b97f4a7c15, out) })
	dyadic := fastest(func() { r.MulCoeffs(a, b, out) })
	ratio := float64(scalar) / float64(dyadic)
	t.Logf("MulScalar %v, MulCoeffs %v per 16 calls: ratio %.2f (bound %d)", scalar, dyadic, ratio, mulScalarBound)
	if ratio > mulScalarBound {
		t.Errorf("Ring.MulScalar takes %.1f times MulCoeffs of the same shape, want at most %d", ratio, mulScalarBound)
	}
}
