//go:build !chocodebug

package rlwe

import "testing"

// Twin of debug_tagged_test.go: an undrained special-prime row must not
// panic in the default build — the sum comes out wrong, but the assertion
// layer is strictly additive.
func TestUndrainedRowSilentWithoutChocodebug(t *testing.T) {
	ctx := testContext(t)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("untagged build panicked on an undrained accumulator row: %v", r)
		}
	}()
	for level := ctx.MaxLevel(); level >= 0; level-- {
		qa := ctx.NewQPAccumulator(level)
		qa.acc[1].Coeffs[level+1][7] = 1
		c0, c1 := qa.FinalizeModDown()
		ctx.RingAtLevel(level).PutPoly(c0)
		ctx.RingAtLevel(level).PutPoly(c1)
	}
}
