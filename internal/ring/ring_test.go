package ring

import (
	"math/big"
	"testing"

	"choco/internal/nt"
	"choco/internal/sampling"
)

func testRing(t *testing.T, logN int, bitLens []int) *Ring {
	t.Helper()
	primes, err := nt.GenerateNTTPrimesVarBits(bitLens, logN)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(logN, primes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func randomPoly(r *Ring, seed byte) *Poly {
	src := sampling.NewSource([32]byte{seed}, "ring-test")
	p := r.NewPoly()
	for i, m := range r.Moduli {
		src.UniformMod(p.Coeffs[i], m.Value)
	}
	return p
}

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(1, []uint64{12289}); err == nil {
		t.Error("expected error for logN too small")
	}
	if _, err := NewRing(12, nil); err == nil {
		t.Error("expected error for empty modulus chain")
	}
	if _, err := NewRing(12, []uint64{12289}); err == nil {
		t.Error("12289 is not 1 mod 2^13; expected error")
	}
	if _, err := NewRing(10, []uint64{12289, 12289}); err == nil {
		t.Error("expected error for duplicate modulus")
	}
	// 2N+1 composite aligned value should be rejected as non-prime.
	if _, err := NewRing(10, []uint64{2049 * 5}); err == nil {
		t.Error("expected error for composite modulus")
	}
}

func TestNTTRoundTrip(t *testing.T) {
	for _, logN := range []int{4, 8, 12, 13} {
		r := testRing(t, logN, []int{30, 31})
		p := randomPoly(r, byte(logN))
		orig := r.CopyPoly(p)
		r.NTT(p)
		if !p.isNTT {
			t.Fatal("NTT did not set the domain flag")
		}
		r.INTT(p)
		if !r.Equal(p, orig) {
			t.Fatalf("logN=%d: NTT/INTT round trip mismatch", logN)
		}
	}
}

// naiveNegacyclic computes (a*b mod X^N+1) mod q coefficient-wise.
func naiveNegacyclic(m nt.Modulus, a, b []uint64) []uint64 {
	n := len(a)
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			prod := m.Mul(a[i], b[j])
			k := i + j
			if k < n {
				out[k] = m.Add(out[k], prod)
			} else {
				out[k-n] = m.Sub(out[k-n], prod)
			}
		}
	}
	return out
}

func TestNTTMultiplicationMatchesNaive(t *testing.T) {
	r := testRing(t, 6, []int{30, 31, 32})
	a := randomPoly(r, 1)
	b := randomPoly(r, 2)
	want := make([][]uint64, r.Level())
	for i, m := range r.Moduli {
		want[i] = naiveNegacyclic(m, a.Coeffs[i], b.Coeffs[i])
	}
	r.NTT(a)
	r.NTT(b)
	c := r.NewPoly()
	r.MulCoeffs(a, b, c)
	r.INTT(c)
	for i := range want {
		for j := range want[i] {
			if c.Coeffs[i][j] != want[i][j] {
				t.Fatalf("residue %d coeff %d: got %d want %d", i, j, c.Coeffs[i][j], want[i][j])
			}
		}
	}
}

func TestAddSubNegLinearity(t *testing.T) {
	r := testRing(t, 8, []int{40})
	a := randomPoly(r, 3)
	b := randomPoly(r, 4)
	sum := r.NewPoly()
	diff := r.NewPoly()
	neg := r.NewPoly()
	r.Add(a, b, sum)
	r.Sub(sum, b, diff)
	if !r.Equal(diff, a) {
		t.Error("(a+b)-b != a")
	}
	r.Neg(a, neg)
	r.Add(a, neg, sum)
	for i := range sum.Coeffs {
		for _, v := range sum.Coeffs[i] {
			if v != 0 {
				t.Fatal("a + (-a) != 0")
			}
		}
	}
}

// mulCoeffsAdd sets out += a ⊙ b as a reduced product and a modular
// add per coefficient: the unfused reference the fused and lazy
// accumulators are checked against.
func mulCoeffsAdd(r *Ring, a, b, out *Poly) {
	prod := r.NewPoly()
	r.MulCoeffs(a, b, prod)
	r.Add(out, prod, out)
}

func TestAutomorphismComposition(t *testing.T) {
	// Applying g then g' equals applying g·g' mod 2N.
	r := testRing(t, 6, []int{30})
	a := randomPoly(r, 8)
	g1 := uint64(3)
	g2 := uint64(5)
	tmp := r.NewPoly()
	seq := r.NewPoly()
	r.Automorphism(a, g1, tmp)
	r.Automorphism(tmp, g2, seq)
	direct := r.NewPoly()
	r.Automorphism(a, (g1*g2)%(2*uint64(r.N)), direct)
	if !r.Equal(seq, direct) {
		t.Error("automorphism composition failed")
	}
}

func TestAutomorphismIdentityAndInverse(t *testing.T) {
	r := testRing(t, 6, []int{30})
	a := randomPoly(r, 9)
	out := r.NewPoly()
	r.Automorphism(a, 1, out)
	if !r.Equal(out, a) {
		t.Error("automorphism with g=1 is not identity")
	}
	// g * gInv ≡ 1 mod 2N restores the input.
	g := uint64(3)
	twoN := uint64(2 * r.N)
	gInv := uint64(0)
	for x := uint64(1); x < twoN; x += 2 {
		if g*x%twoN == 1 {
			gInv = x
			break
		}
	}
	tmp := r.NewPoly()
	r.Automorphism(a, g, tmp)
	r.Automorphism(tmp, gInv, out)
	if !r.Equal(out, a) {
		t.Error("automorphism inverse failed")
	}
}

func TestAutomorphismIsRingHomomorphism(t *testing.T) {
	// phi(a*b) == phi(a)*phi(b) for the negacyclic product.
	r := testRing(t, 5, []int{30})
	a := randomPoly(r, 10)
	b := randomPoly(r, 11)
	g := uint64(3)

	phiA := r.NewPoly()
	phiB := r.NewPoly()
	r.Automorphism(a, g, phiA)
	r.Automorphism(b, g, phiB)

	// lhs = phi(a*b)
	an := r.CopyPoly(a)
	bn := r.CopyPoly(b)
	r.NTT(an)
	r.NTT(bn)
	ab := r.NewPoly()
	r.MulCoeffs(an, bn, ab)
	r.INTT(ab)
	lhs := r.NewPoly()
	r.Automorphism(ab, g, lhs)

	// rhs = phi(a)*phi(b)
	r.NTT(phiA)
	r.NTT(phiB)
	rhs := r.NewPoly()
	r.MulCoeffs(phiA, phiB, rhs)
	r.INTT(rhs)

	if !r.Equal(lhs, rhs) {
		t.Error("automorphism is not multiplicative")
	}
}

func TestCRTRoundTrip(t *testing.T) {
	r := testRing(t, 6, []int{30, 31, 32})
	p := randomPoly(r, 12)
	vals := make([]*big.Int, r.N)
	r.PolyToBigintCentered(p, vals)
	back := r.NewPoly()
	r.SetCoeffsBigint(vals, back)
	if !r.Equal(p, back) {
		t.Error("CRT compose/decompose round trip failed")
	}
	half := r.halfQ
	for _, v := range vals {
		if new(big.Int).Abs(v).Cmp(half) > 0 {
			t.Error("centered value exceeds Q/2")
		}
	}
}

func TestSetCoeffsInt64Signs(t *testing.T) {
	r := testRing(t, 4, []int{30, 31})
	p := r.NewPoly()
	r.SetCoeffsInt64([]int64{-1, 1, -7, 0}, p)
	vals := make([]*big.Int, r.N)
	r.PolyToBigintCentered(p, vals)
	want := []int64{-1, 1, -7, 0}
	for i, w := range want {
		if vals[i].Int64() != w {
			t.Errorf("coeff %d = %v, want %d", i, vals[i], w)
		}
	}
}

func TestInfNormBig(t *testing.T) {
	r := testRing(t, 4, []int{30})
	p := r.NewPoly()
	r.SetCoeffsInt64([]int64{3, -9, 2, 0}, p)
	if got := r.InfNormBig(p); got.Int64() != 9 {
		t.Errorf("InfNorm = %v, want 9", got)
	}
}

func TestAtLevel(t *testing.T) {
	r := testRing(t, 5, []int{30, 31, 32})
	sub := r.AtLevel(1)
	if sub.Level() != 2 {
		t.Fatalf("AtLevel(1).Level() = %d, want 2", sub.Level())
	}
	// Operations at the sub-ring level must be consistent.
	p := sub.NewPoly()
	src := sampling.NewSource([32]byte{42}, "lvl")
	for i, m := range sub.Moduli {
		src.UniformMod(p.Coeffs[i], m.Value)
	}
	orig := sub.CopyPoly(p)
	sub.NTT(p)
	sub.INTT(p)
	if !sub.Equal(p, orig) {
		t.Error("sub-ring NTT round trip failed")
	}
}

func TestGaloisElements(t *testing.T) {
	r := testRing(t, 6, []int{30})
	if g := r.GaloisElementForRotation(0); g != 1 {
		t.Errorf("rotation 0 galois element = %d, want 1", g)
	}
	if g := r.GaloisElementForRotation(1); g != 3 {
		t.Errorf("rotation 1 galois element = %d, want 3", g)
	}
	if g := r.GaloisElementRowSwap(); g != uint64(2*r.N-1) {
		t.Errorf("row swap element = %d", g)
	}
	// rotation by -1 then by 1 composes to identity in the quotient
	// group: 3^(N/2) ≡ 1 mod 2N for the row-rotation subgroup.
	gPos := r.GaloisElementForRotation(1)
	gNeg := r.GaloisElementForRotation(-1)
	if gPos*gNeg%(2*uint64(r.N)) != 1 {
		t.Errorf("g(1)*g(-1) != 1 mod 2N: %d", gPos*gNeg%(2*uint64(r.N)))
	}
}

func BenchmarkNTT(b *testing.B) {
	primes, err := nt.GenerateNTTPrimesVarBits([]int{58, 58, 59}, 13)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRing(13, primes)
	if err != nil {
		b.Fatal(err)
	}
	p := r.NewPoly()
	src := sampling.NewSource([32]byte{1}, "bench")
	for i, m := range r.Moduli {
		src.UniformMod(p.Coeffs[i], m.Value)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.NTT(p)
		r.INTT(p)
	}
}

func TestRingBoundaryDegrees(t *testing.T) {
	// The smallest and a large supported degree both round-trip.
	for _, logN := range []int{2, 14} {
		primes, err := nt.GenerateNTTPrimes(30, logN, 1)
		if err != nil {
			t.Fatalf("logN=%d: %v", logN, err)
		}
		r, err := NewRing(logN, primes)
		if err != nil {
			t.Fatalf("logN=%d: %v", logN, err)
		}
		p := randomPoly(r, byte(logN))
		orig := r.CopyPoly(p)
		r.NTT(p)
		r.INTT(p)
		if !r.Equal(p, orig) {
			t.Errorf("logN=%d round trip failed", logN)
		}
	}
	if _, err := NewRing(18, []uint64{12289}); err == nil {
		t.Error("expected error for logN beyond support")
	}
}

// TestAutomorphismNTTMatchesCoeff pins the evaluation-domain
// automorphism against the coefficient-domain reference: for every
// Galois element, NTT(Automorphism(a)) must equal
// AutomorphismNTT(NTT(a)) slot for slot. This is the identity the
// hoisted key-switching path relies on when it permutes decomposed
// digits without leaving the NTT domain.
func TestAutomorphismNTTMatchesCoeff(t *testing.T) {
	for _, logN := range []int{4, 8, 11} {
		r := testRing(t, logN, []int{30, 31})
		gs := []uint64{3, 9, 5, r.GaloisElementRowSwap()}
		for s := 1; s < 5; s++ {
			gs = append(gs, r.GaloisElementForRotation(s), r.GaloisElementForRotation(-s))
		}
		for _, g := range gs {
			a := randomPoly(r, byte(logN))

			viaCoeff := r.NewPoly()
			r.Automorphism(a, g, viaCoeff)
			r.NTT(viaCoeff)

			r.NTT(a)
			out := r.NewPoly()
			r.AutomorphismNTT(a, g, out)

			if !r.Equal(viaCoeff, out) {
				t.Fatalf("logN=%d g=%d: AutomorphismNTT disagrees with NTT-of-Automorphism", logN, g)
			}
		}
	}
}

// TestAutomorphismTableCache checks that repeated automorphisms through
// the cached tables stay self-consistent and that AtLevel sub-rings see
// the same cache (the tables depend only on N).
func TestAutomorphismTableCache(t *testing.T) {
	r := testRing(t, 8, []int{30, 31, 32})
	sub := r.AtLevel(1)
	if sub.autos != r.autos {
		t.Fatal("AtLevel sub-ring does not share the automorphism cache")
	}
	g := r.GaloisElementForRotation(3)
	a := randomPoly(r, 77)
	first := r.NewPoly()
	r.Automorphism(a, g, first)
	second := r.NewPoly()
	r.Automorphism(a, g, second) // cached-table path
	if !r.Equal(first, second) {
		t.Fatal("cached automorphism table diverges from first computation")
	}
}

// TestAutomorphismNTTRejectsCoeffDomain pins the domain guard.
func TestAutomorphismNTTRejectsCoeffDomain(t *testing.T) {
	r := testRing(t, 4, []int{30})
	a := randomPoly(r, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for coefficient-domain input")
		}
	}()
	r.AutomorphismNTT(a, 3, r.NewPoly())
}

func TestRowKernelsMatchWholePolyNTT(t *testing.T) {
	r := testRing(t, 10, []int{40, 41, 42})
	p := randomPoly(r, 5)
	q := r.CopyPoly(p)
	r.NTT(p)
	for lvl := range q.Coeffs {
		r.NTTForwardRow(lvl, q.Coeffs[lvl])
	}
	q.DeclareNTT()
	if !r.Equal(p, q) {
		t.Fatal("per-row forward NTT diverged from whole-poly NTT")
	}
	r.INTT(p)
	for lvl := range q.Coeffs {
		r.NTTInverseRow(lvl, q.Coeffs[lvl])
	}
	q.DeclareCoeff()
	if !r.Equal(p, q) {
		t.Fatal("per-row inverse NTT diverged from whole-poly INTT")
	}
}

func TestCoeffBigintCenteredMatchesPolyComposition(t *testing.T) {
	r := testRing(t, 8, []int{30, 31, 32})
	p := randomPoly(r, 9)
	want := make([]*big.Int, r.N)
	r.PolyToBigintCentered(p, want)
	got := new(big.Int)
	for j := 0; j < r.N; j++ {
		r.CoeffBigintCentered(p, j, got)
		if got.Cmp(want[j]) != 0 {
			t.Fatalf("coeff %d: got %v want %v", j, got, want[j])
		}
	}
}

func TestAutomorphismNTTMulShoupAdd2MatchesTwoStep(t *testing.T) {
	// The fused gather-and-accumulate must be byte-identical to the
	// unfused sequence: AutomorphismNTT into scratch, then a scalar
	// Shoup multiply and modular add per coefficient — for several
	// Galois elements, the identity that relinearization uses among
	// them, and non-zero initial accumulator contents.
	r := testRing(t, 8, []int{30, 31, 32})
	a := randomPoly(r, 31)
	b0 := randomPoly(r, 32)
	b1 := randomPoly(r, 33)
	r.NTT(a)
	r.NTT(b0)
	r.NTT(b1)
	b0Shoup := r.ShoupPolyPrecomp(b0)
	b1Shoup := r.ShoupPolyPrecomp(b1)

	for _, g := range []uint64{1, 3, r.GaloisElementForRotation(5), r.GaloisElementRowSwap()} {
		fused0 := randomPoly(r, 34)
		fused1 := randomPoly(r, 35)
		seq0 := r.CopyPoly(fused0)
		seq1 := r.CopyPoly(fused1)
		for _, p := range []*Poly{fused0, fused1, seq0, seq1} {
			p.DeclareNTT()
		}

		r.AutomorphismNTTMulShoupAdd2(a, g, b0, b0Shoup, fused0, b1, b1Shoup, fused1)

		dig := r.NewPoly()
		dig.DeclareNTT()
		r.AutomorphismNTT(a, g, dig)
		for i, m := range r.Moduli {
			for j, x := range dig.Coeffs[i] {
				seq0.Coeffs[i][j] = m.Add(seq0.Coeffs[i][j], m.MulShoup(x, b0.Coeffs[i][j], b0Shoup[i][j]))
				seq1.Coeffs[i][j] = m.Add(seq1.Coeffs[i][j], m.MulShoup(x, b1.Coeffs[i][j], b1Shoup[i][j]))
			}
		}

		if !r.Equal(fused0, seq0) || !r.Equal(fused1, seq1) {
			t.Fatalf("fused gather-accumulate diverged from two-step sequence at g=%d", g)
		}
	}
}

// TestMulCoeffsShoupMatchesMulCoeffs: the dyadic product by a fixed
// operand's Shoup companions is word for word MulCoeffs' Barrett one, on
// every tier MulCoeffs has (its AVX2 kernel and the scalar loop), at
// primes of 30 to 61 bits, with the largest residue q − 1 in both
// operands.
func TestMulCoeffsShoupMatchesMulCoeffs(t *testing.T) {
	defer SetVectorKernels(true)
	for _, bits := range [][]int{{30, 31, 32}, {36, 36}, {55, 58, 61}} {
		r := testRing(t, 10, bits)
		a, b := randomPoly(r, 41), randomPoly(r, 42)
		for i, m := range r.Moduli {
			a.Coeffs[i][0], b.Coeffs[i][0], b.Coeffs[i][1] = m.Value-1, m.Value-1, m.Value-1
		}
		a.DeclareNTT()
		b.DeclareNTT()
		got := r.NewPoly()
		r.MulCoeffsShoup(a, b, r.ShoupPolyPrecomp(b), got)
		for _, vector := range []bool{true, false} {
			SetVectorKernels(vector)
			want := r.NewPoly()
			r.MulCoeffs(a, b, want)
			if !r.Equal(got, want) || !got.IsNTT() {
				t.Fatalf("%v-bit primes, vector kernels %v: MulCoeffsShoup differs from MulCoeffs", bits, vector)
			}
		}
	}
}

// TestSetCoeffsUint64Allocs pins the plaintext lift's allocation count:
// it reduces each coefficient into each row in place and allocates
// nothing, so an arbitrary-precision reduction per coefficient shows.
func TestSetCoeffsUint64Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	r := testRing(t, 12, []int{36, 36, 37})
	values := make([]uint64, r.N)
	for j := range values {
		values[j] = uint64(j) * 0x9e3779b97f4a7c15
	}
	p := r.NewPoly()
	if a := testing.AllocsPerRun(16, func() { r.SetCoeffsUint64(values, p) }); a > 0 {
		t.Errorf("SetCoeffsUint64 allocates %.1f objects/op, want 0", a)
	}
}
