package sampling

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"sync"
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

// gaussPMF returns the exact probability of x under the discrete
// Gaussian of parameter sigma truncated at ⌈6σ⌉, from math.Exp.
func gaussPMF(sigma float64) map[int64]float64 {
	bound := int64(math.Ceil(6 * sigma))
	pmf := map[int64]float64{}
	var sum float64
	for x := -bound; x <= bound; x++ {
		pmf[x] = math.Exp(-float64(x*x) / (2 * sigma * sigma))
		sum += pmf[x]
	}
	for x := range pmf {
		pmf[x] /= sum
	}
	return pmf
}

// TestGaussianDistribution draws 2²⁰ errors and holds them to the exact
// discrete-Gaussian mass: every sample in [−20, 20], a chi-square over
// the values (the tails pooled until each side expects ten draws), and
// mean and standard deviation against the distribution's own.
func TestGaussianDistribution(t *testing.T) {
	const n = 1 << 20
	const sigma = DefaultSigma
	out := make([]int64, n)
	src("gauss").GaussianSigned(out, sigma)
	counts := map[int64]float64{}
	var sum, sumSq float64
	for _, v := range out {
		if v < -20 || v > 20 {
			t.Fatalf("sample %d outside [−20, 20]", v)
		}
		counts[v]++
		sum += float64(v)
		sumSq += float64(v * v)
	}
	pmf := gaussPMF(sigma)
	if len(pmf) != 41 {
		t.Fatalf("support has %d values, want 41", len(pmf))
	}
	var wantVar float64
	for x, p := range pmf {
		wantVar += float64(x*x) * p
	}
	// Pool |x| ≥ tail on each side, the tail expecting at least ten.
	tail := int64(20)
	for tailMass := pmf[tail]; tailMass*n < 10; tailMass += pmf[tail] {
		tail--
	}
	bin := func(x int64) int64 { return max(-tail, min(tail, x)) }
	obs, exp := map[int64]float64{}, map[int64]float64{}
	for x, p := range pmf {
		obs[bin(x)] += counts[x]
		exp[bin(x)] += p * n
	}
	var chi2 float64
	for b, e := range exp {
		chi2 += (obs[b] - e) * (obs[b] - e) / e
	}
	// 2·tail degrees of freedom; 3.7σ of the chi-square above its mean.
	dof := float64(2 * tail)
	if limit := dof + 3.7*math.Sqrt(2*dof); chi2 > limit {
		t.Errorf("chi-square %.1f over %d bins exceeds %.1f", chi2, len(exp), limit)
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.015 {
		t.Errorf("mean %.4f too far from 0", mean)
	}
	if wantStd := math.Sqrt(wantVar); math.Abs(std-wantStd) > 0.012 || math.Abs(wantStd-sigma) > 0.01 {
		t.Errorf("std %.4f, distribution's %.4f, σ %.1f", std, wantStd, sigma)
	}
	t.Logf("chi-square %.1f over %d bins (tails pooled at |x| ≥ %d), std %.4f", chi2, len(exp), tail, std)
}

// cdtWords32 are the σ = 3.2 thresholds every key and ciphertext in
// the repository is drawn with.
var cdtWords32 = []uint64{
	0x0ff52b406d4818b8, 0x2e5a25d41b8f6a87, 0x489ae2685597c3b8, 0x5d2bc20e1978e72f,
	0x6bc8694ac09ad0b6, 0x7532d89929570bff, 0x7ab396c9c376fa1d, 0x7d9e4e8fab2da206,
	0x7f05495659e2a1c4, 0x7fa1ce9a3e0914ab, 0x7fdfb3f04fdddddb, 0x7ff5e6f80ed81b50,
	0x7ffd1f95f8d159a0, 0x7fff40f83d0ea068, 0x7fffd2e67265920c, 0x7ffff650800a4ec3,
	0x7ffffe1bf0f9d1cb, 0x7fffffaa46a0f9b2, 0x7ffffff264ea65fe, 0x7ffffffe3c832d81,
}

// bigCDT recomputes the folded thresholds at prec bits another way
// than cdtTable: each ρ(k) = 1/exp(k²/2σ²) from its own Taylor series.
func bigCDT(sigma float64, prec uint) []uint64 {
	f := func() *big.Float { return new(big.Float).SetPrec(prec) }
	exp := func(x *big.Float) *big.Float {
		sum, term := f().SetInt64(1), f().SetInt64(1)
		for i := int64(1); i < 400; i++ {
			term.Quo(term.Mul(term, x), f().SetInt64(i))
			sum.Add(sum, term)
		}
		return sum
	}
	bound := int(math.Ceil(6 * sigma))
	s := f().SetFloat64(sigma)
	twoSigma2 := f().Mul(f().SetInt64(2), f().Mul(s, s))
	mass := make([]*big.Float, bound+1)
	total := f()
	for k := range mass {
		x := f().Quo(f().SetInt64(int64(k*k)), twoSigma2)
		mass[k] = f().Quo(f().SetInt64(1), exp(x))
		if k > 0 {
			mass[k].Mul(mass[k], f().SetInt64(2))
		}
		total.Add(total, mass[k])
	}
	out := make([]uint64, bound)
	cum := f()
	for k := range out {
		cum.Add(cum, mass[k])
		v := f().Quo(cum, total)
		v.SetMantExp(v, 63).Add(v, f().SetFloat64(0.5))
		out[k], _ = v.Uint64()
	}
	return out
}

// TestCDTTable pins the σ = 3.2 threshold words and holds them, and
// the table at other σ, to a 256-bit recomputation: a change in how
// the table is computed, or a platform computing it differently, fails
// here before it silently changes every key.
func TestCDTTable(t *testing.T) {
	if got := cdtTable(DefaultSigma); !slices.Equal(got, cdtWords32) {
		t.Errorf("σ = 3.2 table\n got %#x\nwant %#x", got, cdtWords32)
	}
	for _, sigma := range []float64{0.5, 1, DefaultSigma, 3.19, 8} {
		got, want := cdtTable(sigma), bigCDT(sigma, 256)
		bound := len(want)
		if len(got) != (bound+3)&^3 || !slices.Equal(got[:bound], want) {
			t.Fatalf("σ = %v:\n got %#x\nwant %#x", sigma, got, want)
		}
		for k, v := range got[bound:] {
			if v != 1<<63 {
				t.Errorf("σ = %v: pad entry %d is %#x, want 2⁶³", sigma, bound+k, v)
			}
		}
	}
}

// refGaussian is the reference CDT sampler: one Uint64 per draw and a
// plain search for the first threshold above the top 63 bits.
func refGaussian(x *refXOF, out []int64, t []uint64) {
	for i := range out {
		w := x.Uint64()
		mag := 0
		for mag < len(t) && w>>1 >= t[mag] {
			mag++
		}
		out[i] = int64(mag)
		if w&1 == 1 {
			out[i] = -out[i]
		}
	}
}

// TestGaussianMatchesUnbufferedReference holds the buffered, unrolled
// loop to refGaussian draw for draw at the ring sizes the presets use,
// starting mid-buffer so the draws straddle prefetch refills, and then
// checks both streams stand at the same word.
func TestGaussianMatchesUnbufferedReference(t *testing.T) {
	seed := [32]byte{41}
	for _, n := range []int{4096, 8192} {
		s := NewSource(seed, "ref-gauss")
		x := newRefXOF(seed, "ref-gauss")
		for range 3 {
			s.Uint64()
			x.Uint64()
		}
		got, want := make([]int64, n), make([]int64, n)
		s.GaussianSigned(got, DefaultSigma)
		refGaussian(x, want, cdtWords32)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d index %d: got %d want %d", n, i, got[i], want[i])
			}
		}
		if a, b := s.Uint64(), x.Uint64(); a != b {
			t.Fatalf("n=%d: next word %#x, reference %#x", n, a, b)
		}
	}
}

// TestGaussianWordBoundaries feeds chosen words: a word one below a
// threshold stays at magnitude k, the threshold itself reaches k+1,
// the top word reaches ±20 and nothing reaches beyond.
func TestGaussianWordBoundaries(t *testing.T) {
	var words []uint64
	var want []int64
	for k, tk := range cdtWords32 {
		words = append(words, (tk-1)<<1, tk<<1, tk<<1|1)
		want = append(want, int64(k), int64(k+1), -int64(k+1))
	}
	words = append(words, 0, 1, ^uint64(0)-1, ^uint64(0))
	want = append(want, 0, 0, 20, -20)
	s := src("edges")
	s.refill()
	copy(s.buf[:], words)
	got := make([]int64, len(words))
	s.GaussianSigned(got, DefaultSigma)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("word %#x: got %d want %d", words[i], got[i], want[i])
		}
	}
}

// TestGaussianOneWordPerCoefficient holds an n-coefficient draw to
// advancing the stream by exactly n words, whatever the errors drawn.
func TestGaussianOneWordPerCoefficient(t *testing.T) {
	for _, n := range []int{1, 255, 256, 257, 4096, 8192} {
		a, b := src("advance"), src("advance")
		a.GaussianSigned(make([]int64, n), DefaultSigma)
		for range n {
			b.Uint64()
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("n=%d: next word %#x after the draw, %#x after %d words", n, x, y, n)
		}
	}
}

// TestGaussianConcurrentTables draws at a σ no other test uses from
// several goroutines at once, each with its own Source: the first use
// builds the shared table, and every goroutine's draw equals a serial
// one.
func TestGaussianConcurrentTables(t *testing.T) {
	const sigma = 2.75
	want := make([]int64, 1024)
	src("conc").GaussianSigned(want, sigma)
	var wg sync.WaitGroup
	got := make([][]int64, 4)
	for g := range got {
		got[g] = make([]int64, len(want))
		wg.Add(1)
		go func() {
			defer wg.Done()
			src("conc").GaussianSigned(got[g], sigma)
		}()
	}
	wg.Wait()
	for g := range got {
		if !slices.Equal(got[g], want) {
			t.Fatalf("goroutine %d drew a different sequence", g)
		}
	}
}

func BenchmarkGaussianSigned(b *testing.B) {
	for _, n := range []int{4096, 8192} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := src("bench-gauss")
			out := make([]int64, n)
			for b.Loop() {
				s.GaussianSigned(out, DefaultSigma)
			}
		})
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
// values captured from the pre-batched (one Uint64 per trial) sampler;
// the Gaussian row since the table sampler replaced Box–Muller, which
// consumed the same eight words here, so the row after it stands. It
// proves both that each sampler's output is unchanged by block
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
	wantG := []int64{-2, 0, 4, -4, -7, -3, 0, -1}
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
	// 2⁶³+1 rejects almost half the words: the buffered loop must skip
	// them exactly as the reference does.
	for _, q := range []uint64{65537, 0x3ffffffff000001, 1<<61 - 1, 1<<63 + 1} {
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

// TestIntnMatchesUnbufferedReference holds Intn to one Uint64 per trial
// straight off the XOF, rejected at the largest multiple of the bound:
// with a small bound, where rejection almost never happens, and with
// MaxInt/2 + 2 (2⁶²+1 where int has 64 bits), where it rejects a quarter
// of the words.
func TestIntnMatchesUnbufferedReference(t *testing.T) {
	seed := [32]byte{32}
	for _, n := range []int{7, math.MaxInt/2 + 2} {
		s := NewSource(seed, "ref-intn")
		x := newRefXOF(seed, "ref-intn")
		q := uint64(n)
		bound := q * (^uint64(0) / q)
		for i := 0; i < 4096; i++ {
			v := x.Uint64()
			for v >= bound {
				v = x.Uint64()
			}
			if got := s.Intn(n); got != int(v%q) {
				t.Fatalf("n=%d draw %d: got %d want %d", n, i, got, v%q)
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
