//go:build chocodebug

package ring

import (
	"fmt"
	"strings"
	"testing"
)

// mustPanic runs f and returns the recovered panic message, failing the
// test when f returns normally.
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

// TestChocodebugOutOfRangeResiduePanics plants a residue >= q_0 and
// checks that the first op touching the poly panics in the tagged
// build (the untagged twin of this test asserts it does not).
func TestChocodebugOutOfRangeResiduePanics(t *testing.T) {
	r := testRing(t, 4, []int{30, 31})
	p := randomPoly(r, 1)
	out := r.NewPoly()
	p.Coeffs[0][3] = r.Moduli[0].Value // out of range: residues live in [0, q_0)
	msg := mustPanic(t, func() { r.Add(p, p, out) })
	if !strings.Contains(msg, "chocodebug") || !strings.Contains(msg, "out of range") {
		t.Fatalf("unexpected panic message: %q", msg)
	}
}

// TestChocodebugLevelOverflowPanics feeds a full-level polynomial to a
// truncated ring, which the tagged build rejects before indexing past
// the ring's modulus chain.
func TestChocodebugLevelOverflowPanics(t *testing.T) {
	r := testRing(t, 4, []int{30, 31, 31})
	sub := r.AtLevel(0)
	p := randomPoly(r, 2) // 3 residue rows, sub has 1 modulus
	out := sub.NewPoly()
	msg := mustPanic(t, func() { sub.Add(p, p, out) })
	if !strings.Contains(msg, "chocodebug") || !strings.Contains(msg, "residue rows") {
		t.Fatalf("unexpected panic message: %q", msg)
	}
}

// TestChocodebugShapePanics checks the row-length invariant: a residue
// row not holding exactly N coefficients is rejected.
func TestChocodebugShapePanics(t *testing.T) {
	r := testRing(t, 4, []int{30})
	p := r.NewPoly()
	p.Coeffs[0] = p.Coeffs[0][:r.N-1]
	out := r.NewPoly()
	msg := mustPanic(t, func() { r.Neg(p, out) })
	if !strings.Contains(msg, "chocodebug") || !strings.Contains(msg, "coefficients") {
		t.Fatalf("unexpected panic message: %q", msg)
	}
}

// TestChocodebugWideAccOverflowPanics: callers cannot overflow a WideAcc,
// it folds by its own count — so the tagged build asserts the bound where
// it would show, the carry out of the high word, and a miscount panics
// instead of wrapping (the untagged twin wraps silently).
func TestChocodebugWideAccOverflowPanics(t *testing.T) {
	msg := mustPanic(t, func() { overflowWideAcc(t) })
	if !strings.Contains(msg, "chocodebug") || !strings.Contains(msg, "overflowed 128 bits") {
		t.Fatalf("unexpected panic message: %q", msg)
	}
}

// TestChocodebugWideAccRowMismatchPanics multiplies a polynomial of a
// truncated ring into an accumulator of the full one: rejected by name
// before the kernel indexes past the operand's rows.
func TestChocodebugWideAccRowMismatchPanics(t *testing.T) {
	r := testRing(t, 4, []int{30, 31, 31})
	short := randomPoly(r.AtLevel(1), 5)
	short.DeclareNTT()
	full := randomPoly(r, 6)
	full.DeclareNTT()
	msg := mustPanic(t, func() { r.MulCoeffsAddWide(short, full, r.GetWideAcc()) })
	if !strings.Contains(msg, "chocodebug") || !strings.Contains(msg, "residue rows") {
		t.Fatalf("unexpected panic message: %q", msg)
	}
}

// TestChocodebugUnreducedLaneNeverReachesIFMA plants a lane equal to q
// in an operand of each IFMA kernel's entry point on a ring that selects
// the kernels: the two dyadic kernels, both whole-polynomial transforms
// and both row transforms. VPMADD52 multiplies only a lane's low 52 bits,
// so an unreduced lane would give a wrong product, not a congruent one:
// the tagged build must panic by name before the kernel runs.
func TestChocodebugUnreducedLaneNeverReachesIFMA(t *testing.T) {
	r := testRing(t, 4, []int{51, 36})
	t.Logf("ring selects IFMA: %v, NTT rows %v, %v (kernel tier %s)", r.useIFMA(), r.tables[0].useIFMA(), r.tables[1].useIFMA(), KernelTier())
	a := randomPoly(r, 7)
	b := randomPoly(r, 8)
	a.DeclareNTT()
	b.DeclareNTT()
	bs := r.ShoupPolyPrecomp(b)
	a.Coeffs[0][5] = r.Moduli[0].Value
	coeff := r.CopyPoly(a)
	coeff.DeclareCoeff()
	for name, call := range map[string]func(){
		"AutomorphismNTTMulShoupAdd2": func() {
			o0, o1 := r.NewPoly(), r.NewPoly()
			o0.DeclareNTT()
			o1.DeclareNTT()
			r.AutomorphismNTTMulShoupAdd2(a, 3, b, bs, o0, b, bs, o1)
		},
		"MulCoeffsAddWide": func() { r.MulCoeffsAddWide(a, b, r.GetWideAcc()) },
		"NTT":              func() { r.NTT(r.CopyPoly(coeff)) },
		"INTT":             func() { r.INTT(r.CopyPoly(a)) },
		"NTTForwardRow":    func() { r.NTTForwardRow(0, append([]uint64(nil), a.Coeffs[0]...)) },
		"NTTInverseRow":    func() { r.NTTInverseRow(0, append([]uint64(nil), a.Coeffs[0]...)) },
	} {
		msg := mustPanic(t, call)
		if !strings.Contains(msg, "chocodebug") || !strings.Contains(msg, name) || !strings.Contains(msg, "out of range") {
			t.Fatalf("%s: unexpected panic message: %q", name, msg)
		}
	}
}

// TestDomainMismatchStillPanics documents that the domain-consistency
// invariant is enforced in every build, not only under chocodebug: the
// runtime checks in MulCoeffs/Add are always on.
func TestDomainMismatchStillPanics(t *testing.T) {
	r := testRing(t, 4, []int{30, 31})
	a := randomPoly(r, 3)
	b := randomPoly(r, 4)
	out := r.NewPoly()
	mustPanic(t, func() { r.MulCoeffs(a, b, out) }) // coefficient-domain operands
	r.NTT(a)
	mustPanic(t, func() { r.Add(a, b, out) }) // mixed domains
}
