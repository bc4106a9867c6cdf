package ring

import (
	"math/rand"
	"testing"

	"choco/internal/nt"
)

// requireIFMA skips on hosts and builds without the IFMA kernels, naming
// the missing feature, and restores the kernel switch afterwards.
func requireIFMA(t testing.TB) {
	t.Helper()
	if !ifmaAvailable() {
		t.Skip("no AVX-512 IFMA kernels: the host lacks AVX512F+AVX512IFMA with ZMM state enabled, or the build is purego/non-amd64")
	}
	prev := VectorKernelsEnabled()
	t.Cleanup(func() { SetVectorKernels(prev) })
}

// ifmaTestRings is vectorTestRings plus the two sides of the 2^51 bound:
// a ring whose primes are all 51 bits (the widest the kernels take) and
// one with a 52-bit prime, which must fall back to the scalar loops.
func ifmaTestRings(t testing.TB) []*Ring {
	rings := vectorTestRings(t)
	for _, bits := range [][]int{{51, 51, 51}, {52, 40}} {
		qs, err := nt.GenerateNTTPrimesVarBits(bits, 12)
		if err != nil {
			t.Fatalf("primes %v: %v", bits, err)
		}
		r, err := NewRing(12, qs)
		if err != nil {
			t.Fatal(err)
		}
		rings = append(rings, r)
	}
	return rings
}

// wantIFMA is the dispatch rule spelled out: N a multiple of 8 and every
// modulus below 2^51, on a host that has the kernels.
func wantIFMA(r *Ring) bool {
	if !ifmaAvailable() || r.N%8 != 0 {
		return false
	}
	for _, m := range r.Moduli {
		if m.BitLen() > 51 {
			return false
		}
	}
	return true
}

// topPoly returns an NTT-domain polynomial whose every residue is q−1.
func topPoly(r *Ring) *Poly {
	p := r.NewPoly()
	for i, m := range r.Moduli {
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = m.Value - 1
		}
	}
	p.DeclareNTT()
	return p
}

// TestIFMAKernelsMatchScalar runs AutomorphismNTTMulShoupAdd2 and
// MulCoeffsAddWide with the kernels on and off (SetVectorKernels(false)
// is the scalar oracle) on every vectorTestRings shape, a 51-bit ring
// and a ring with a 52-bit prime, at every level, on random operands and
// on operands that are all q−1 (the inner product at four Galois
// elements, relinearization's identity among them), with a WideAcc
// forced through a fold in mid-chain; both paths must agree byte for
// byte.
func TestIFMAKernelsMatchScalar(t *testing.T) {
	requireIFMA(t)
	t.Logf("kernel tier %s", KernelTier())
	rng := rand.New(rand.NewSource(59))
	for _, full := range ifmaTestRings(t) {
		for lvl := full.Level() - 1; lvl >= 0; lvl-- {
			r := full.AtLevel(lvl)
			if r.ifma != wantIFMA(r) {
				t.Fatalf("N=%d moduli %v: ring selects IFMA = %v, the rule says %v", r.N, r.Moduli, r.ifma, wantIFMA(r))
			}
			t.Logf("N=%d level %d: IFMA %v", r.N, lvl, r.ifma)
			for _, top := range []bool{false, true} {
				operand := func() *Poly {
					if top {
						return topPoly(r)
					}
					return randomVecPoly(r, rng, true)
				}
				a, b0, b1 := operand(), operand(), operand()
				acc0, acc1 := operand(), operand()
				s0, s1 := r.ShoupPolyPrecomp(b0), r.ShoupPolyPrecomp(b1)
				for _, g := range []uint64{1, 3, r.GaloisElementForRotation(5), r.GaloisElementRowSwap()} {
					var outs [2][2]*Poly
					for k, vec := range []bool{true, false} {
						SetVectorKernels(vec)
						o0, o1 := r.CopyPoly(acc0), r.CopyPoly(acc1)
						r.AutomorphismNTTMulShoupAdd2(a, g, b0, s0, o0, b1, s1, o1)
						outs[k] = [2]*Poly{o0, o1}
					}
					if !r.Equal(outs[0][0], outs[1][0]) || !r.Equal(outs[0][1], outs[1][1]) {
						t.Fatalf("N=%d level %d g=%d q−1=%v: AutomorphismNTTMulShoupAdd2 kernel != scalar", r.N, lvl, g, top)
					}
				}

				const terms, foldAfter = 6, 3
				as, bs := make([]*Poly, terms), make([]*Poly, terms)
				for k := range as {
					as[k], bs[k] = operand(), operand()
				}
				var sums [2]*Poly
				for k, vec := range []bool{true, false} {
					SetVectorKernels(vec)
					acc := r.GetWideAcc()
					for j := range as {
						if j == foldAfter {
							acc.terms = r.wideTerms() // the next term folds first
						}
						r.MulCoeffsAddWide(as[j], bs[j], acc)
					}
					sums[k] = r.ReduceWideAcc(acc)
				}
				_, eager := wideChain(r, terms, func(k int) (*Poly, *Poly) { return as[k], bs[k] })
				if !r.Equal(sums[0], sums[1]) || !r.Equal(sums[1], eager) {
					t.Fatalf("N=%d level %d q−1=%v: MulCoeffsAddWide across a fold: kernel, scalar and per-term MulCoeffs + Add differ", r.N, lvl, top)
				}
			}
		}
	}
}

// TestIFMADispatch pins which rings take the kernels: bfv-B's
// {36, 36, 37} key ring and its levels do on an IFMA host, as do the
// bfv-Test {40, 40, 41}, ckks-Test {50, 50, 51} and PresetDistance
// {50, 40, 40, 51} shapes; bfv-A's {58, 58, 59} and ckks-C's
// {60, 60, 60} do not, nor does a ring with a 60-bit prime at each end,
// nor a ring too short for one 8-lane vector. The NTT decides per
// residue row: every row whose prime is below 2^51 (the 51-bit special
// primes included) selects the IFMA stages, the 58- to 60-bit rows the
// AVX2 ones, and a row of N = 4 neither. SetVectorKernels(false) turns
// the kernels off everywhere.
func TestIFMADispatch(t *testing.T) {
	requireIFMA(t)
	for _, s := range []struct {
		name string
		logN int
		bits []int
		want bool
	}{
		{"bfv-B", 12, []int{36, 36, 37}, true},
		{"bfv-Test", 11, []int{40, 40, 41}, true},
		{"ckks-Test", 11, []int{50, 50, 51}, true},
		{"PresetDistance", 13, []int{50, 40, 40, 51}, true},
		{"bfv-A", 13, []int{58, 58, 59}, false},
		{"ckks-C", 13, []int{60, 60, 60}, false},
		{"60-bit ends", 13, []int{60, 40, 40, 60}, false},
		{"N=4", 2, []int{36, 37}, false},
	} {
		qs, err := nt.GenerateNTTPrimesVarBits(s.bits, s.logN)
		if err != nil {
			t.Fatalf("%s primes: %v", s.name, err)
		}
		r, err := NewRing(s.logN, qs)
		if err != nil {
			t.Fatal(err)
		}
		SetVectorKernels(true)
		if r.useIFMA() != s.want {
			t.Errorf("%s (N=%d, %v bits): uses IFMA = %v, want %v", s.name, r.N, s.bits, r.useIFMA(), s.want)
		}
		if s.want && !r.AtLevel(0).useIFMA() {
			t.Errorf("%s: the level-0 view drops the IFMA kernels", s.name)
		}
		var rows []bool
		for i, tbl := range r.tables {
			want := s.bits[i] <= 51 && r.N >= 16
			if tbl.useIFMA() != want {
				t.Errorf("%s row %d (%d-bit prime): NTT selects IFMA = %v, want %v", s.name, i, s.bits[i], tbl.useIFMA(), want)
			}
			rows = append(rows, tbl.useIFMA())
		}
		t.Logf("%s (N=%d, %v bits): dyadic IFMA %v, NTT IFMA per row %v", s.name, r.N, s.bits, r.useIFMA(), rows)
		SetVectorKernels(false)
		if r.useIFMA() || KernelTier() != "scalar" {
			t.Errorf("%s: SetVectorKernels(false) leaves IFMA = %v, tier %q", s.name, r.useIFMA(), KernelTier())
		}
		for i, tbl := range r.tables {
			if tbl.useIFMA() {
				t.Errorf("%s row %d: SetVectorKernels(false) leaves the IFMA NTT selected", s.name, i)
			}
		}
	}
	// ckks-C's data primes below its 60-bit top one fit: the level views
	// decide for themselves.
	qs, err := nt.GenerateNTTPrimesVarBits([]int{40, 40, 60}, 12)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(12, qs)
	if err != nil {
		t.Fatal(err)
	}
	SetVectorKernels(true)
	if r.useIFMA() || !r.AtLevel(1).useIFMA() {
		t.Errorf("{40, 40, 60}: full ring IFMA = %v (want false), level-1 view %v (want true)", r.useIFMA(), r.AtLevel(1).useIFMA())
	}
	if KernelTier() != "avx512ifma" {
		t.Errorf("KernelTier() = %q on an IFMA host with the kernels on", KernelTier())
	}
}

// TestIFMANTTRejectsShortRow hands the IFMA row transforms a row shorter
// than the ring degree: the stages count their steps from the row and
// would run past its end, so both directions must panic instead.
func TestIFMANTTRejectsShortRow(t *testing.T) {
	requireIFMA(t)
	SetVectorKernels(true)
	qs, err := nt.GenerateNTTPrimesVarBits([]int{36}, 12)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(12, qs)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func([]uint64){
		"forward": func(row []uint64) { nttForward(r.tables[0], row) },
		"inverse": func(row []uint64) { nttInverse(r.tables[0], row) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a 16-word row on an N=4096 IFMA table did not panic", name)
				}
			}()
			f(make([]uint64, 16))
		}()
	}
}

// FuzzAutomorphismNTTMulShoupAdd2 drives the gathered key-switch inner
// product with fuzz-chosen Galois elements and operands through the IFMA
// kernel and the scalar loop and asserts byte identity. Pattern bytes
// plant boundary residues (0, q−1) in every operand, the accumulators
// included; the ring holds a 51-bit prime, the widest the kernel takes.
func FuzzAutomorphismNTTMulShoupAdd2(f *testing.F) {
	f.Add(uint64(1), uint16(1), []byte{0, 1, 2, 3})
	f.Add(uint64(7), uint16(63), []byte{255})
	f.Add(uint64(99), uint16(2), []byte{})
	f.Add(uint64(3), uint16(0), []byte{0, 1}) // g = 1, relinearization's element
	f.Fuzz(func(t *testing.T, seed uint64, gHalf uint16, pattern []byte) {
		requireIFMA(t)
		qs, err := nt.GenerateNTTPrimesVarBits([]int{51, 36, 37}, 6)
		if err != nil {
			t.Skip("no primes")
		}
		r, err := NewRing(6, qs)
		if err != nil {
			t.Skip("no ring")
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		operand := func() *Poly { return fuzzOperand(r, rng, pattern) }
		a, b0, b1, acc0, acc1 := operand(), operand(), operand(), operand(), operand()
		s0, s1 := r.ShoupPolyPrecomp(b0), r.ShoupPolyPrecomp(b1)
		g := (2*uint64(gHalf) + 1) % uint64(2*r.N)
		var outs [2][2]*Poly
		for k, vec := range []bool{true, false} {
			SetVectorKernels(vec)
			o0, o1 := r.CopyPoly(acc0), r.CopyPoly(acc1)
			r.AutomorphismNTTMulShoupAdd2(a, g, b0, s0, o0, b1, s1, o1)
			outs[k] = [2]*Poly{o0, o1}
		}
		if !r.Equal(outs[0][0], outs[1][0]) || !r.Equal(outs[0][1], outs[1][1]) {
			t.Fatalf("g=%d: IFMA kernel differs from the scalar loop", g)
		}
	})
}

// fuzzOperand returns a random NTT-domain polynomial of r with boundary
// residues planted where pattern says: byte%4 == 0 puts q−1, == 1 puts 0.
func fuzzOperand(r *Ring, rng *rand.Rand, pattern []byte) *Poly {
	p := randomVecPoly(r, rng, true)
	if len(pattern) == 0 {
		return p
	}
	for i, m := range r.Moduli {
		for j := range p.Coeffs[i] {
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

// benchIFMAKernel times one call of the gathered key-switch inner
// product (gather) or of the multiply-accumulate on bfv-B's key-ring
// shape, 3 rows × 4096, with the kernels on (vec) or off.
func benchIFMAKernel(b *testing.B, gather, vec bool) {
	prev := VectorKernelsEnabled()
	defer SetVectorKernels(prev)
	SetVectorKernels(vec)
	qs, err := nt.GenerateNTTPrimesVarBits([]int{36, 36, 37}, 12)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRing(12, qs)
	if err != nil {
		b.Fatal(err)
	}
	if vec && !r.useIFMA() {
		b.Skip("no AVX-512 IFMA kernels on this host/build")
	}
	rng := rand.New(rand.NewSource(61))
	a, b0, b1 := randomVecPoly(r, rng, true), randomVecPoly(r, rng, true), randomVecPoly(r, rng, true)
	o0, o1 := randomVecPoly(r, rng, true), randomVecPoly(r, rng, true)
	s0, s1 := r.ShoupPolyPrecomp(b0), r.ShoupPolyPrecomp(b1)
	g := r.GaloisElementForRotation(1)
	acc := r.GetWideAcc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if gather {
			r.AutomorphismNTTMulShoupAdd2(a, g, b0, s0, o0, b1, s1, o1)
		} else {
			r.MulCoeffsAddWide(a, b0, acc)
		}
	}
}

func BenchmarkAutomorphismNTTMulShoupAdd2Scalar(b *testing.B) { benchIFMAKernel(b, true, false) }
func BenchmarkAutomorphismNTTMulShoupAdd2IFMA(b *testing.B)   { benchIFMAKernel(b, true, true) }
func BenchmarkMulCoeffsAddWideScalar(b *testing.B)            { benchIFMAKernel(b, false, false) }
func BenchmarkMulCoeffsAddWideIFMA(b *testing.B)              { benchIFMAKernel(b, false, true) }
