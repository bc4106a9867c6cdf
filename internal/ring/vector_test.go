package ring

import (
	"math/rand"
	"testing"

	"choco/internal/nt"
)

// vectorTestRings builds rings covering every preset shape in the
// paper's Table 3 ({36,36,37}, {58,58,59}, {60,60,60}, and the test
// presets) plus boundary degrees: the smallest vectorizable ring
// (N=8), the scalar-fallback floor (N=4), and a degree whose t=2/t=1
// stages dominate (N=16).
func vectorTestRings(t testing.TB) []*Ring {
	t.Helper()
	shapes := []struct {
		logN int
		bits []int
	}{
		{2, []int{40, 41}},
		{3, []int{40, 41}},
		{4, []int{36, 36, 37}},
		{11, []int{40, 40, 41}},
		{11, []int{50, 50, 51}},
		{12, []int{36, 36, 37}},
		{13, []int{58, 58, 59}},
		{13, []int{60, 60, 60}},
	}
	var rings []*Ring
	for _, s := range shapes {
		qs, err := nt.GenerateNTTPrimesVarBits(s.bits, s.logN)
		if err != nil {
			t.Fatalf("primes logN=%d bits=%v: %v", s.logN, s.bits, err)
		}
		r, err := NewRing(s.logN, qs)
		if err != nil {
			t.Fatalf("NewRing logN=%d: %v", s.logN, err)
		}
		rings = append(rings, r)
	}
	return rings
}

func randomVecPoly(r *Ring, rng *rand.Rand, ntt bool) *Poly {
	p := r.NewPoly()
	for i, m := range r.Moduli {
		row := p.Coeffs[i]
		for j := range row {
			row[j] = rng.Uint64() % m.Value
		}
	}
	if ntt {
		p.DeclareNTT()
	}
	return p
}

// requireVector skips the test on hosts/builds without vector kernels
// and registers cleanup restoring the prior dispatch state.
func requireVector(t *testing.T) {
	t.Helper()
	prev := VectorKernelsEnabled()
	t.Cleanup(func() { SetVectorKernels(prev) })
	if !SetVectorKernels(true) {
		t.Skip("no vector kernels on this host/build")
	}
}

// TestNTTVectorScalarIdentical transforms identical random rows
// through the vector and scalar paths — both directions, every preset
// shape, every drop level — and requires bit-identical residues.
func TestNTTVectorScalarIdentical(t *testing.T) {
	requireVector(t)
	rng := rand.New(rand.NewSource(41))
	for _, full := range vectorTestRings(t) {
		for lvl := full.Level() - 1; lvl >= 0; lvl-- {
			r := full
			if lvl < full.Level()-1 {
				r = full.AtLevel(lvl)
			}
			a := randomVecPoly(r, rng, false)
			b := r.CopyPoly(a)

			SetVectorKernels(true)
			r.NTT(a)
			SetVectorKernels(false)
			r.NTT(b)
			if !r.Equal(a, b) {
				t.Fatalf("N=%d lvl=%d: forward NTT vector != scalar", r.N, lvl)
			}

			SetVectorKernels(true)
			r.INTT(a)
			SetVectorKernels(false)
			r.INTT(b)
			SetVectorKernels(true)
			if !r.Equal(a, b) {
				t.Fatalf("N=%d lvl=%d: inverse NTT vector != scalar", r.N, lvl)
			}
		}
	}
}

// TestDyadicVectorScalarIdentical covers the three fused dyadic kernels
// against their scalar twins on every preset shape.
func TestDyadicVectorScalarIdentical(t *testing.T) {
	requireVector(t)
	rng := rand.New(rand.NewSource(43))
	for _, r := range vectorTestRings(t) {
		a := randomVecPoly(r, rng, true)
		b0 := randomVecPoly(r, rng, true)
		b1 := randomVecPoly(r, rng, true)
		acc0 := randomVecPoly(r, rng, true)
		acc1 := randomVecPoly(r, rng, true)
		s0 := r.ShoupPolyPrecomp(b0)
		s1 := r.ShoupPolyPrecomp(b1)

		type variant struct {
			name string
			run  func(out0, out1 *Poly)
		}
		variants := []variant{
			{"MulCoeffs", func(o0, _ *Poly) { r.MulCoeffs(a, b0, o0) }},
			{"MulCoeffsAdd", func(o0, _ *Poly) { r.MulCoeffsAdd(a, b0, o0) }},
			{"MulCoeffsShoupAdd2", func(o0, o1 *Poly) { r.MulCoeffsShoupAdd2(a, b0, s0, o0, b1, s1, o1) }},
		}
		for _, v := range variants {
			vec0, vec1 := r.CopyPoly(acc0), r.CopyPoly(acc1)
			ref0, ref1 := r.CopyPoly(acc0), r.CopyPoly(acc1)
			SetVectorKernels(true)
			v.run(vec0, vec1)
			SetVectorKernels(false)
			v.run(ref0, ref1)
			SetVectorKernels(true)
			if !r.Equal(vec0, ref0) || !r.Equal(vec1, ref1) {
				t.Fatalf("N=%d %s: vector != scalar", r.N, v.name)
			}
		}
	}
}

// TestNTTVectorRoundTrip checks NTT∘INTT is the identity through the
// vector path alone (the transforms must invert exactly, not only
// match the scalar code).
func TestNTTVectorRoundTrip(t *testing.T) {
	requireVector(t)
	rng := rand.New(rand.NewSource(47))
	for _, r := range vectorTestRings(t) {
		a := randomVecPoly(r, rng, false)
		want := r.CopyPoly(a)
		r.NTT(a)
		r.INTT(a)
		if !r.Equal(a, want) {
			t.Fatalf("N=%d: vector NTT round trip not identity", r.N)
		}
	}
}

// FuzzNTTRowVector feeds arbitrary residue rows through both NTT
// directions on both paths and asserts byte identity. The row is
// seeded from fuzz bytes so the corpus explores structured patterns
// (all-zero, boundary residues) alongside random ones.
func FuzzNTTRowVector(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3})
	f.Add(uint64(99), []byte{255})
	f.Fuzz(func(t *testing.T, seed uint64, pattern []byte) {
		if !vectorAvailable() {
			t.Skip("scalar-only build")
		}
		prev := VectorKernelsEnabled()
		defer SetVectorKernels(prev)
		qs, err := nt.GenerateNTTPrimesVarBits([]int{55}, 6)
		if err != nil {
			t.Skip("no prime")
		}
		r, err := NewRing(6, qs)
		if err != nil {
			t.Skip("no ring")
		}
		q := r.Moduli[0].Value
		rng := rand.New(rand.NewSource(int64(seed)))
		row := make([]uint64, r.N)
		for j := range row {
			if len(pattern) > 0 && pattern[j%len(pattern)]&1 == 0 {
				row[j] = uint64(pattern[j%len(pattern)]) % q
			} else {
				row[j] = rng.Uint64() % q
			}
		}
		ref := append([]uint64(nil), row...)

		SetVectorKernels(true)
		r.NTTForwardRow(0, row)
		SetVectorKernels(false)
		r.NTTForwardRow(0, ref)
		for j := range row {
			if row[j] != ref[j] {
				t.Fatalf("forward row diverges at %d: %d != %d", j, row[j], ref[j])
			}
		}
		SetVectorKernels(true)
		r.NTTInverseRow(0, row)
		SetVectorKernels(false)
		r.NTTInverseRow(0, ref)
		for j := range row {
			if row[j] != ref[j] {
				t.Fatalf("inverse row diverges at %d: %d != %d", j, row[j], ref[j])
			}
		}
	})
}

func benchNTTRow(b *testing.B, logN int, vec bool, forward bool) {
	prev := VectorKernelsEnabled()
	defer SetVectorKernels(prev)
	if SetVectorKernels(vec) != vec {
		b.Skip("vector kernels unavailable")
	}
	qs, err := nt.GenerateNTTPrimesVarBits([]int{60}, logN)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRing(logN, qs)
	if err != nil {
		b.Fatal(err)
	}
	row := make([]uint64, r.N)
	rng := rand.New(rand.NewSource(7))
	for j := range row {
		row[j] = rng.Uint64() % r.Moduli[0].Value
	}
	b.SetBytes(int64(8 * r.N))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if forward {
			r.NTTForwardRow(0, row)
		} else {
			r.NTTInverseRow(0, row)
		}
	}
}

func BenchmarkNTTRowFwdScalar(b *testing.B) { benchNTTRow(b, 13, false, true) }
func BenchmarkNTTRowFwdVector(b *testing.B) { benchNTTRow(b, 13, true, true) }
func BenchmarkNTTRowInvScalar(b *testing.B) { benchNTTRow(b, 13, false, false) }
func BenchmarkNTTRowInvVector(b *testing.B) { benchNTTRow(b, 13, true, false) }
