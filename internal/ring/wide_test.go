package ring

import (
	"math/big"
	"math/rand"
	"testing"

	"choco/internal/nt"
)

// wideChain runs the same n-term dyadic multiply-accumulate twice over r —
// lazily through a WideAcc, and as one reduced MulCoeffsAdd per term — and
// returns both results. Operand k is term(k).
func wideChain(r *Ring, n int, term func(k int) (a, b *Poly)) (lazy, eager *Poly) {
	acc := r.GetWideAcc()
	eager = r.NewPoly()
	eager.DeclareNTT()
	for k := 0; k < n; k++ {
		a, b := term(k)
		r.MulCoeffsAddWide(a, b, acc)
		r.MulCoeffsAdd(a, b, eager)
	}
	return r.ReduceWideAcc(acc), eager
}

// TestMulCoeffsAddWideMatchesMulCoeffsAdd pins the lazy accumulator to
// the kernel it replaces in the inner sums: on every preset shape (the
// key rings of bfv-B, bfv-A and the Test preset among them), a 30-term
// chain accumulated unreduced and reduced once equals the same chain of
// per-term MulCoeffsAdd byte for byte — against the AVX2 kernel and
// against the scalar loop (the only one a purego build has).
func TestMulCoeffsAddWideMatchesMulCoeffsAdd(t *testing.T) {
	prev := VectorKernelsEnabled()
	t.Cleanup(func() { SetVectorKernels(prev) })
	rng := rand.New(rand.NewSource(53))
	for _, r := range vectorTestRings(t) {
		const terms = 30
		as, bs := make([]*Poly, terms), make([]*Poly, terms)
		for k := range as {
			as[k], bs[k] = randomVecPoly(r, rng, true), randomVecPoly(r, rng, true)
		}
		// Boundary residues in the first terms: 0 and q−1 against q−1.
		for i, m := range r.Moduli {
			as[0].Coeffs[i][0], bs[0].Coeffs[i][0] = m.Value-1, m.Value-1
			as[1].Coeffs[i][0], bs[1].Coeffs[i][0] = 0, m.Value-1
		}
		for _, vec := range []bool{true, false} {
			SetVectorKernels(vec)
			lazy, eager := wideChain(r, terms, func(k int) (*Poly, *Poly) { return as[k], bs[k] })
			if !r.Equal(lazy, eager) {
				t.Fatalf("N=%d moduli=%d vector=%v: lazy accumulation differs from per-term MulCoeffsAdd", r.N, r.Level(), vec)
			}
			r.PutPoly(lazy)
		}
	}
}

// TestWideAccFoldsBeforeOverflow is the worst case the term count exists
// for: 61-bit primes, every operand q−1, so each product is just under
// 2^122 and 64 of them fill the accumulator. 150 terms force two mid-sum
// folds (before terms 65 and 128); the result must be 150·(q−1)² mod q
// computed in big.Int, and must match the per-term chain.
func TestWideAccFoldsBeforeOverflow(t *testing.T) {
	qs, err := nt.GenerateNTTPrimesVarBits([]int{61, 61}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(4, qs)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.wideTerms(); got != 64 {
		t.Fatalf("a 128-bit accumulator over 61-bit primes holds %d terms, want 2^(128−122) = 64", got)
	}
	top := r.NewPoly()
	for i, m := range r.Moduli {
		for j := range top.Coeffs[i] {
			top.Coeffs[i][j] = m.Value - 1
		}
	}
	top.DeclareNTT()

	const terms = 150
	acc := r.GetWideAcc()
	for k := 0; k < terms; k++ {
		r.MulCoeffsAddWide(top, top, acc)
	}
	// A fold leaves one term's worth behind: 64 + 63 products, then 23.
	if acc.terms != 24 {
		t.Fatalf("after %d terms the accumulator counts %d since its last fold, want 24 (two folds)", terms, acc.terms)
	}
	got := r.ReduceWideAcc(acc)
	for i, m := range r.Moduli {
		q := new(big.Int).SetUint64(m.Value)
		want := new(big.Int).SetUint64(m.Value - 1)
		want.Mul(want, want).Mul(want, big.NewInt(terms)).Mod(want, q)
		for j, v := range got.Coeffs[i] {
			if v != want.Uint64() {
				t.Fatalf("row %d coefficient %d: %d, big.Int says %d", i, j, v, want.Uint64())
			}
		}
	}
	_, eager := wideChain(r, terms, func(int) (*Poly, *Poly) { return top, top })
	if !r.Equal(got, eager) {
		t.Fatal("folded accumulation differs from per-term MulCoeffsAdd")
	}

	// The paper's widest special prime, bfv-A's 59 bits, folds every 1 024.
	qs, err = nt.GenerateNTTPrimesVarBits([]int{58, 59}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r, err = NewRing(4, qs); err != nil {
		t.Fatal(err)
	}
	if got := r.wideTerms(); got != 1024 {
		t.Fatalf("a 128-bit accumulator over a 59-bit prime holds %d terms, want 1024", got)
	}
}

// FuzzMulCoeffsAddWide drives chains of fuzz-chosen length and operands
// through the lazy accumulator over 61- and 55-bit primes — long enough to
// cross the 64-term fold — and asserts byte identity with the per-term
// reduced chain. Pattern bytes plant boundary residues (0, q−1) among
// random ones.
func FuzzMulCoeffsAddWide(f *testing.F) {
	f.Add(uint64(1), uint8(3), []byte{0, 1, 2, 3})
	f.Add(uint64(7), uint8(200), []byte{255})
	f.Add(uint64(99), uint8(65), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, terms uint8, pattern []byte) {
		qs, err := nt.GenerateNTTPrimesVarBits([]int{61, 55}, 4)
		if err != nil {
			t.Skip("no primes")
		}
		r, err := NewRing(4, qs)
		if err != nil {
			t.Skip("no ring")
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		operand := func() *Poly {
			p := randomVecPoly(r, rng, true)
			for i, m := range r.Moduli {
				for j := range p.Coeffs[i] {
					if len(pattern) == 0 {
						continue
					}
					switch pattern[(i*r.N+j)%len(pattern)] % 4 {
					case 0:
						p.Coeffs[i][j] = m.Value - 1
					case 1:
						p.Coeffs[i][j] = 0
					}
				}
			}
			return p
		}
		lazy, eager := wideChain(r, int(terms), func(int) (*Poly, *Poly) { return operand(), operand() })
		if !r.Equal(lazy, eager) {
			t.Fatalf("%d terms: lazy accumulation differs from per-term MulCoeffsAdd", terms)
		}
	})
}

// overflowWideAcc defeats the accumulator's own term count (resetting it
// behind its back) while summing 65 products of q−1 over a 61-bit prime:
// one more than 128 bits hold. The chocodebug build panics on the carry
// out of the high word (debug_tagged_test.go), the default one wraps
// (debug_untagged_test.go).
func overflowWideAcc(t *testing.T) {
	r := testRing(t, 4, []int{61})
	top := r.NewPoly()
	for j := range top.Coeffs[0] {
		top.Coeffs[0][j] = r.Moduli[0].Value - 1
	}
	top.DeclareNTT()
	acc := r.GetWideAcc()
	for k := 0; k < 65; k++ {
		acc.terms = 0
		r.MulCoeffsAddWide(top, top, acc)
	}
}
