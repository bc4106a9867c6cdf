//go:build chocodebug

package rlwe

import (
	"fmt"
	"strings"
	"testing"
)

func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected chocodebug panic, got normal return")
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return
}

// TestChocodebugUndrainedRowPanics breaks the lazy-accumulation invariant
// — the special-prime row must be empty between rotations — at the top
// level (where BFV runs) and one below it (where only CKKS does), and
// checks that closing the accumulator panics. The residue planted is
// canonical, so only the drained-row check can catch it.
func TestChocodebugUndrainedRowPanics(t *testing.T) {
	ctx := testContext(t)
	for level := ctx.MaxLevel(); level >= 0; level-- {
		qa := ctx.NewQPAccumulator(level)
		qa.acc[1].Coeffs[level+1][7] = 1
		msg := mustPanic(t, func() { qa.FinalizeModDown() })
		if !strings.Contains(msg, "chocodebug") || !strings.Contains(msg, "not drained") {
			t.Fatalf("level %d: unexpected panic message: %q", level, msg)
		}
		qa.Release()
	}
}

// TestChocodebugAccumulatorResiduePanics plants a non-canonical word in a
// correction row of one of two accumulators being merged.
func TestChocodebugAccumulatorResiduePanics(t *testing.T) {
	ctx := testContext(t)
	qa, other := ctx.NewQPAccumulator(0), ctx.NewQPAccumulator(0)
	other.corr[0].Coeffs[0][3] = ctx.RingQ.Moduli[0].Value
	msg := mustPanic(t, func() { qa.Merge(other) })
	if !strings.Contains(msg, "chocodebug") || !strings.Contains(msg, "out of range") {
		t.Fatalf("unexpected panic message: %q", msg)
	}
}
