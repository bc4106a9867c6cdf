package sampling

import (
	"math"
	"testing"

	"choco/internal/blake3"
)

func src(label string) *Source {
	return NewSource([32]byte{7}, label)
}

func TestDeterminism(t *testing.T) {
	a := src("x")
	b := src("x")
	c := src("y")
	bufA := make([]uint64, 64)
	bufB := make([]uint64, 64)
	bufC := make([]uint64, 64)
	a.UniformMod(bufA, 65537)
	b.UniformMod(bufB, 65537)
	c.UniformMod(bufC, 65537)
	same, diff := true, false
	for i := range bufA {
		if bufA[i] != bufB[i] {
			same = false
		}
		if bufA[i] != bufC[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same label produced different streams")
	}
	if !diff {
		t.Error("different labels produced identical streams")
	}
}

func TestUniformModRange(t *testing.T) {
	s := src("uniform")
	for _, q := range []uint64{2, 3, 12289, 1 << 60} {
		out := make([]uint64, 2048)
		s.UniformMod(out, q)
		var sum float64
		for _, v := range out {
			if v >= q {
				t.Fatalf("value %d out of range for q=%d", v, q)
			}
			sum += float64(v) / float64(q)
		}
		mean := sum / float64(len(out))
		if q > 100 && (mean < 0.45 || mean > 0.55) {
			t.Errorf("q=%d: normalized mean %.3f far from 0.5", q, mean)
		}
	}
}

func TestTernaryDistribution(t *testing.T) {
	s := src("ternary")
	q := uint64(12289)
	out := make([]uint64, 30000)
	s.Ternary(out, q)
	counts := map[uint64]int{}
	for _, v := range out {
		counts[v]++
	}
	if len(counts) != 3 {
		t.Fatalf("ternary produced %d distinct values", len(counts))
	}
	for _, v := range []uint64{0, 1, q - 1} {
		frac := float64(counts[v]) / float64(len(out))
		if frac < 0.30 || frac > 0.37 {
			t.Errorf("value %d frequency %.3f, want ~1/3", v, frac)
		}
	}
}

func TestTernarySignedMatchesModular(t *testing.T) {
	q := uint64(97)
	a := src("tern-match")
	b := src("tern-match")
	modular := make([]uint64, 500)
	signed := make([]int64, 500)
	a.Ternary(modular, q)
	b.TernarySigned(signed)
	for i := range modular {
		var want uint64
		switch signed[i] {
		case 0:
			want = 0
		case 1:
			want = 1
		case -1:
			want = q - 1
		}
		if modular[i] != want {
			t.Fatalf("index %d: modular %d vs signed %d", i, modular[i], signed[i])
		}
	}
}

func TestGaussianMoments(t *testing.T) {
	s := src("gauss")
	out := make([]int64, 50000)
	s.GaussianSigned(out, DefaultSigma)
	var sum, sumSq float64
	bound := int64(math.Ceil(6 * DefaultSigma))
	for _, v := range out {
		if v > bound || v < -bound {
			t.Fatalf("sample %d outside ±6σ", v)
		}
		sum += float64(v)
		sumSq += float64(v) * float64(v)
	}
	n := float64(len(out))
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.1 {
		t.Errorf("mean %.3f too far from 0", mean)
	}
	if math.Abs(std-DefaultSigma) > 0.15 {
		t.Errorf("std %.3f, want ~%.1f", std, DefaultSigma)
	}
}

func TestGaussianModular(t *testing.T) {
	q := uint64(12289)
	a := src("gm")
	b := src("gm")
	mod := make([]uint64, 1000)
	sgn := make([]int64, 1000)
	a.Gaussian(mod, q, DefaultSigma)
	b.GaussianSigned(sgn, DefaultSigma)
	for i := range mod {
		var want uint64
		if sgn[i] >= 0 {
			want = uint64(sgn[i])
		} else {
			want = q - uint64(-sgn[i])
		}
		if mod[i] != want {
			t.Fatalf("index %d: %d vs signed %d", i, mod[i], sgn[i])
		}
	}
}

func TestIntnBounds(t *testing.T) {
	s := src("intn")
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("only %d of 7 values seen", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	s.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := src("f64")
	for i := 0; i < 1000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := src("norm")
	var sum, sumSq float64
	n := 20000
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.05 || math.Abs(std-1) > 0.05 {
		t.Errorf("normal moments off: mean %.3f std %.3f", mean, std)
	}
}

// TestGoldenStream pins a sequence of draws — uniform, ternary,
// Gaussian, modular ternary — made back to back from ONE source against
// values captured from the pre-batched (one Uint64 per trial) sampler.
// It proves both that each sampler's output is unchanged by block
// batching and that the stream position each call leaves behind is
// unchanged, so seeded ciphertexts and keys reproduce bit-for-bit.
func TestGoldenStream(t *testing.T) {
	s := NewSource([32]byte{7}, "golden-seq")
	u := make([]uint64, 6)
	s.UniformMod(u, 0xffffffff00000001)
	wantU := []uint64{0x210b900105fc9043, 0xa127d5576dcd9dc, 0x2f7df4ba9d40214e,
		0x775a9343dd7cb4f, 0xc26d362ecdd23bc8, 0x33f014a46f477d7a}
	for i := range wantU {
		if u[i] != wantU[i] {
			t.Fatalf("uniform[%d] = %#x, want %#x", i, u[i], wantU[i])
		}
	}
	tern := make([]int64, 8)
	s.TernarySigned(tern)
	wantT := []int64{1, 0, 0, -1, 0, 1, 1, -1}
	for i := range wantT {
		if tern[i] != wantT[i] {
			t.Fatalf("ternary[%d] = %d, want %d", i, tern[i], wantT[i])
		}
	}
	g := make([]int64, 8)
	s.GaussianSigned(g, 3.2)
	wantG := []int64{4, 2, 0, -2, -1, 0, -1, 7}
	for i := range wantG {
		if g[i] != wantG[i] {
			t.Fatalf("gauss[%d] = %d, want %d", i, g[i], wantG[i])
		}
	}
	modTern := make([]uint64, 8)
	s.Ternary(modTern, 97)
	wantM := []uint64{0, 1, 1, 1, 0, 1, 96, 96}
	for i := range wantM {
		if modTern[i] != wantM[i] {
			t.Fatalf("modtern[%d] = %d, want %d", i, modTern[i], wantM[i])
		}
	}
}

// TestUniformModMatchesUnbufferedReference re-runs the rejection
// sampler against a raw XOF consumed one word per trial — the exact
// pre-batching algorithm — and demands equality at polynomial sizes
// that span many prefetch refills.
func TestUniformModMatchesUnbufferedReference(t *testing.T) {
	seed := [32]byte{31}
	for _, q := range []uint64{65537, 0x3ffffffff000001, 1<<61 - 1} {
		s := NewSource(seed, "ref-uniform")
		got := make([]uint64, 4096)
		s.UniformMod(got, q)
		// Reference: one Uint64 per trial straight off the XOF.
		x := newRefXOF(seed, "ref-uniform")
		bound := q * (^uint64(0) / q)
		want := make([]uint64, len(got))
		for i := range want {
			for {
				v := x.Uint64()
				if v < bound {
					want[i] = v % q
					break
				}
			}
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("q=%d index %d: got %d want %d", q, i, got[i], want[i])
			}
		}
	}
}

// TestBarrettRemIsExact holds UniformMod's remainder to v % q at the
// edges where a one-off quotient estimate would show: q of one bit, of
// 36 bits, around 2⁶³ and at 2⁶⁴−1, and v at 0, at multiples of q and
// one either side of them, and at the top of the word.
func TestBarrettRemIsExact(t *testing.T) {
	const maxU = ^uint64(0)
	for _, q := range []uint64{1, 2, 3, 65537, 1<<36 - 5, 0x3ffffffff000001, 1<<63 - 1, 1 << 63, 1<<63 + 1, maxU - 1, maxU} {
		m := maxU / q
		vs := []uint64{0, 1, q - 1, maxU, maxU - 1, q * m, q*m - 1}
		for k := uint64(1); k < 1<<20 && k <= m; k = k*3 + 1 {
			vs = append(vs, k*q-1, k*q, k*q+1)
		}
		for _, v := range vs {
			if got := barrettRem(v, q, m); got != v%q {
				t.Fatalf("q=%d v=%d: barrettRem %d, v %% q = %d", q, v, got, v%q)
			}
		}
	}
}

// refXOF draws one word at a time straight off the XOF — the
// pre-batching Source behavior — for reference-equivalence tests.
type refXOF struct{ x *blake3.XOF }

func newRefXOF(seed [32]byte, label string) *refXOF {
	return &refXOF{x: blake3.NewXOF(seed, []byte(label))}
}

func (r *refXOF) Uint64() uint64 { return r.x.Uint64() }
