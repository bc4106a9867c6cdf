package ring

import (
	"fmt"
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

// nttTiers returns the vector NTT tiers a test can compare against the
// scalar loops on r: "avx2" always, "ifma" when one of r's tables
// selected the IFMA stages.
func nttTiers(r *Ring) []string {
	for _, tbl := range r.tables {
		if tbl.ifma {
			return []string{"avx2", "ifma"}
		}
	}
	return []string{"avx2"}
}

// withNTTTier runs f with the row transforms of r on one tier: "scalar"
// turns the vector kernels off, "avx2" keeps them on but sends the
// tables that selected IFMA to the AVX2 stages for the duration, "ifma"
// runs each table as selected.
func withNTTTier(r *Ring, tier string, f func()) {
	SetVectorKernels(tier != "scalar")
	if tier == "avx2" {
		var sel []*nttTable
		for _, tbl := range r.tables {
			if tbl.ifma {
				tbl.ifma = false
				sel = append(sel, tbl)
			}
		}
		defer func() {
			for _, tbl := range sel {
				tbl.ifma = true
			}
		}()
	}
	f()
}

// TestNTTVectorScalarIdentical transforms identical random rows through
// each vector tier and the scalar loops — both directions, every preset
// shape (the {50, 50, 51} ring, whose u + 2q − v reaches 2^53, included),
// every drop level — and requires bit-identical residues. On an IFMA
// host the rows below 2^51 are compared on both the IFMA and the AVX2
// stages; the log names the tier each ring ran.
func TestNTTVectorScalarIdentical(t *testing.T) {
	requireVector(t)
	t.Logf("kernel tier %s", KernelTier())
	rng := rand.New(rand.NewSource(41))
	for _, full := range vectorTestRings(t) {
		var widths []int
		for _, m := range full.Moduli {
			widths = append(widths, m.BitLen())
		}
		t.Logf("N=%d, %v-bit primes: NTT tiers compared %v", full.N, widths, nttTiers(full))
		for lvl := full.Level() - 1; lvl >= 0; lvl-- {
			r := full
			if lvl < full.Level()-1 {
				r = full.AtLevel(lvl)
			}
			for _, tier := range nttTiers(r) {
				a := randomVecPoly(r, rng, false)
				b := r.CopyPoly(a)

				withNTTTier(r, tier, func() { r.NTT(a) })
				withNTTTier(r, "scalar", func() { r.NTT(b) })
				if !r.Equal(a, b) {
					t.Fatalf("N=%d lvl=%d: forward NTT %s != scalar", r.N, lvl, tier)
				}

				withNTTTier(r, tier, func() { r.INTT(a) })
				withNTTTier(r, "scalar", func() { r.INTT(b) })
				if !r.Equal(a, b) {
					t.Fatalf("N=%d lvl=%d: inverse NTT %s != scalar", r.N, lvl, tier)
				}
			}
			SetVectorKernels(true)
		}
	}
}

// TestDyadicVectorScalarIdentical covers the dyadic products against
// their scalar twins on every preset shape: MulCoeffs's AVX2 kernel,
// alone and as the reduced multiply-accumulate (mulCoeffsAdd), and the
// Shoup inner product at the identity element (MulCoeffsShoupAdd2: the
// IFMA kernel on rings whose primes are all below 2^51, the scalar loop
// otherwise).
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
			{"MulCoeffs+Add", func(o0, _ *Poly) { mulCoeffsAdd(r, a, b0, o0) }},
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
// directions on every vector tier and the scalar loops and asserts byte
// identity, at N = 64 on a 55-bit prime (AVX2 stages), a 51-bit prime
// (the widest the IFMA stages take) and a 36-bit one (bfv-B's width). The
// row is seeded from fuzz bytes so the corpus explores structured
// patterns alongside random ones: an even byte plants its own value mod
// q, 0xFE plants q−1 (all-(q−1) rows are the widest inputs a stage sees),
// an odd byte a random residue.
func FuzzNTTRowVector(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3})
	f.Add(uint64(99), []byte{255})
	f.Add(uint64(5), []byte{0xFE})
	f.Add(uint64(6), []byte{0xFE, 0xFE, 0xFE, 1})
	var rings []*Ring
	for _, bits := range []int{55, 51, 36} {
		qs, err := nt.GenerateNTTPrimesVarBits([]int{bits}, 6)
		if err != nil {
			f.Fatalf("%d-bit prime: %v", bits, err)
		}
		r, err := NewRing(6, qs)
		if err != nil {
			f.Fatal(err)
		}
		rings = append(rings, r)
	}
	f.Fuzz(func(t *testing.T, seed uint64, pattern []byte) {
		if !vectorAvailable() {
			t.Skip("scalar-only build")
		}
		prev := VectorKernelsEnabled()
		defer SetVectorKernels(prev)
		rng := rand.New(rand.NewSource(int64(seed)))
		for _, r := range rings {
			q := r.Moduli[0].Value
			row := make([]uint64, r.N)
			for j := range row {
				var p byte = 1
				if len(pattern) > 0 {
					p = pattern[j%len(pattern)]
				}
				switch {
				case p == 0xFE:
					row[j] = q - 1
				case p&1 == 0:
					row[j] = uint64(p) % q
				default:
					row[j] = rng.Uint64() % q
				}
			}
			for _, tier := range nttTiers(r) {
				vec := append([]uint64(nil), row...)
				ref := append([]uint64(nil), row...)
				withNTTTier(r, tier, func() { r.NTTForwardRow(0, vec) })
				withNTTTier(r, "scalar", func() { r.NTTForwardRow(0, ref) })
				for j := range vec {
					if vec[j] != ref[j] {
						t.Fatalf("q=%d %s: forward row diverges at %d: %d != %d", q, tier, j, vec[j], ref[j])
					}
				}
				withNTTTier(r, tier, func() { r.NTTInverseRow(0, vec) })
				withNTTTier(r, "scalar", func() { r.NTTInverseRow(0, ref) })
				for j := range vec {
					if vec[j] != ref[j] {
						t.Fatalf("q=%d %s: inverse row diverges at %d: %d != %d", q, tier, j, vec[j], ref[j])
					}
				}
			}
		}
	})
}

// benchNTTRow times one row transform at a prime of the given width on
// one of the kernel tiers: "scalar", "avx2" (the AVX2 stages, also on a
// table that selected IFMA) or "ifma" (skipped where the table did not
// select it).
func benchNTTRow(b *testing.B, bits, logN int, tier string, forward bool) {
	prev := VectorKernelsEnabled()
	defer SetVectorKernels(prev)
	if SetVectorKernels(tier != "scalar") != (tier != "scalar") {
		b.Skip("vector kernels unavailable")
	}
	qs, err := nt.GenerateNTTPrimesVarBits([]int{bits}, logN)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRing(logN, qs)
	if err != nil {
		b.Fatal(err)
	}
	switch tier {
	case "avx2":
		r.tables[0].ifma = false // this ring's own table, shared with no other
	case "ifma":
		if !r.tables[0].ifma {
			b.Skip("no AVX-512 IFMA NTT for this modulus on this host/build")
		}
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

func BenchmarkNTTRowFwdScalar(b *testing.B) { benchNTTRow(b, 60, 13, "scalar", true) }
func BenchmarkNTTRowFwdVector(b *testing.B) { benchNTTRow(b, 60, 13, "avx2", true) }
func BenchmarkNTTRowInvScalar(b *testing.B) { benchNTTRow(b, 60, 13, "scalar", false) }
func BenchmarkNTTRowInvVector(b *testing.B) { benchNTTRow(b, 60, 13, "avx2", false) }

// BenchmarkNTTRowServed times both directions on every tier at the rows
// the served presets transform: bfv-B's 36-bit primes at N = 4096 and a
// 51-bit prime (ckks-Test's and PresetDistance's special prime, the
// widest the IFMA kernels take) at N = 8192.
func BenchmarkNTTRowServed(b *testing.B) {
	for _, s := range []struct{ bits, logN int }{{36, 12}, {51, 13}} {
		for _, dir := range []string{"fwd", "inv"} {
			for _, tier := range []string{"scalar", "avx2", "ifma"} {
				b.Run(fmt.Sprintf("%s/q%d-N%d/%s", dir, s.bits, 1<<s.logN, tier), func(b *testing.B) {
					benchNTTRow(b, s.bits, s.logN, tier, dir == "fwd")
				})
			}
		}
	}
}
