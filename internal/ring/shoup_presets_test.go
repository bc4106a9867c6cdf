package ring_test

import (
	"math/rand"
	"testing"

	"choco/internal/apps/distance"
	"choco/internal/bfv"
	"choco/internal/ckks"
	"choco/internal/ring"
)

// presetRing is a preset's full modulus chain (data primes and the
// special prime), as its rlwe context builds it.
type presetRing struct {
	name string
	r    *ring.Ring
}

func presetRings(t *testing.T) []presetRing {
	t.Helper()
	var rings []presetRing
	for _, p := range []struct {
		name string
		p    bfv.Parameters
	}{{"bfv-A", bfv.PresetA()}, {"bfv-B", bfv.PresetB()}, {"bfv-Test", bfv.PresetTest()}} {
		ctx, err := bfv.NewContext(p.p)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		rings = append(rings, presetRing{p.name, ctx.RingQP})
	}
	for _, p := range []struct {
		name string
		p    ckks.Parameters
	}{{"ckks-C", ckks.PresetC()}, {"ckks-Test", ckks.PresetTest()},
		{"distance", distance.PresetDistance()}, {"distance-Test", distance.PresetDistanceTest()}} {
		ctx, err := ckks.NewContext(p.p)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		rings = append(rings, presetRing{p.name, ctx.RingQP})
	}
	return rings
}

// TestMulCoeffsShoupPresetsMatchScalar holds MulCoeffsShoup with the
// vector kernels on (the IFMA row kernel wherever a level's primes are
// all below 2^51) to the same call with them off, byte for byte, at
// every level of every preset's chain, on random operands and on
// operands that are all q−1; and MulCoeffsShoupRow on rows cut short of
// a multiple of 8, whose tail the scalar loop takes.
func TestMulCoeffsShoupPresetsMatchScalar(t *testing.T) {
	prev := ring.VectorKernelsEnabled()
	defer ring.SetVectorKernels(prev)
	t.Logf("kernel tier %s", ring.KernelTier())
	rng := rand.New(rand.NewSource(61))
	for _, pr := range presetRings(t) {
		name, full := pr.name, pr.r
		for lvl := full.Level() - 1; lvl >= 0; lvl-- {
			r := full.AtLevel(lvl)
			ifma := r.N%8 == 0
			for _, m := range r.Moduli {
				ifma = ifma && m.Value < 1<<51
			}
			t.Logf("%s N=%d level %d: primes below 2^51: %v", name, r.N, lvl, ifma)
			for _, top := range []bool{false, true} {
				operand := func() *ring.Poly {
					p := r.NewPoly()
					for i, m := range r.Moduli {
						for j := range p.Coeffs[i] {
							if top {
								p.Coeffs[i][j] = m.Value - 1
							} else {
								p.Coeffs[i][j] = rng.Uint64() % m.Value
							}
						}
					}
					p.DeclareNTT()
					return p
				}
				a, b := operand(), operand()
				bs := r.ShoupPolyPrecomp(b)
				var outs [2]*ring.Poly
				for k, vec := range []bool{true, false} {
					ring.SetVectorKernels(vec)
					outs[k] = r.NewPoly()
					r.MulCoeffsShoup(a, b, bs, outs[k])
				}
				if !r.Equal(outs[0], outs[1]) {
					t.Fatalf("%s N=%d level %d q−1=%v: MulCoeffsShoup vector != scalar", name, r.N, lvl, top)
				}
				for _, cut := range []int{1, 7, 9, r.N - 3} {
					var rows [2][]uint64
					for k, vec := range []bool{true, false} {
						ring.SetVectorKernels(vec)
						rows[k] = make([]uint64, cut)
						r.MulCoeffsShoupRow(0, a.Coeffs[0], b.Coeffs[0], bs[0], rows[k])
					}
					for j := range rows[1] {
						if rows[0][j] != rows[1][j] || rows[1][j] != outs[1].Coeffs[0][j] {
							t.Fatalf("%s N=%d level %d row of %d: coefficient %d: vector %d, scalar %d, full row %d", name, r.N, lvl, cut, j, rows[0][j], rows[1][j], outs[1].Coeffs[0][j])
						}
					}
				}
			}
		}
	}
}

// BenchmarkMulCoeffsShoupRow times one bfv-B residue row (36-bit prime,
// N = 4 096) of the Shoup product with the vector kernels on (IFMA where
// the host has it) and off.
func BenchmarkMulCoeffsShoupRow(b *testing.B) {
	ctx, err := bfv.NewContext(bfv.PresetB())
	if err != nil {
		b.Fatal(err)
	}
	r := ctx.RingQ
	rng := rand.New(rand.NewSource(62))
	a, w, out := make([]uint64, r.N), make([]uint64, r.N), make([]uint64, r.N)
	q := r.Moduli[0].Value
	for j := range a {
		a[j], w[j] = rng.Uint64()%q, rng.Uint64()%q
	}
	p := r.NewPoly()
	copy(p.Coeffs[0], w)
	ws := r.ShoupPolyPrecomp(p)[0]
	prev := ring.VectorKernelsEnabled()
	defer ring.SetVectorKernels(prev)
	for _, vec := range []bool{true, false} {
		b.Run(map[bool]string{true: "vector", false: "scalar"}[vec], func(b *testing.B) {
			ring.SetVectorKernels(vec)
			for b.Loop() {
				r.MulCoeffsShoupRow(0, a, w, ws, out)
			}
		})
	}
}
