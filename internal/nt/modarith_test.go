package nt

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewModulusPanics(t *testing.T) {
	for _, q := range []uint64{0, 1, 1 << 62} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewModulus(%d) should panic", q)
				}
			}()
			NewModulus(q)
		}()
	}
}

func TestAddSubNeg(t *testing.T) {
	m := NewModulus(17)
	if got := m.Add(16, 16); got != 15 {
		t.Errorf("Add(16,16) mod 17 = %d, want 15", got)
	}
	if got := m.Sub(3, 5); got != 15 {
		t.Errorf("Sub(3,5) mod 17 = %d, want 15", got)
	}
	if got := m.Neg(0); got != 0 {
		t.Errorf("Neg(0) = %d, want 0", got)
	}
	if got := m.Neg(5); got != 12 {
		t.Errorf("Neg(5) mod 17 = %d, want 12", got)
	}
}

func TestMulAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	moduli := []uint64{2, 3, 65537, (1 << 61) - 1, 1152921504606830593}
	for _, q := range moduli {
		if q >= (1 << 61) {
			continue
		}
		m := NewModulus(q)
		bq := new(big.Int).SetUint64(q)
		for i := 0; i < 200; i++ {
			a := rng.Uint64() % q
			b := rng.Uint64() % q
			want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
			want.Mod(want, bq)
			if got := m.Mul(a, b); got != want.Uint64() {
				t.Fatalf("Mul(%d,%d) mod %d = %d, want %d", a, b, q, got, want.Uint64())
			}
		}
	}
}

func TestReduceWideAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, q := range []uint64{3, 12289, (1 << 58) - 27, (1 << 61) - 1} {
		m := NewModulus(q)
		bq := new(big.Int).SetUint64(q)
		for i := 0; i < 300; i++ {
			hi, lo := rng.Uint64(), rng.Uint64()
			x := new(big.Int).SetUint64(hi)
			x.Lsh(x, 64)
			x.Add(x, new(big.Int).SetUint64(lo))
			want := new(big.Int).Mod(x, bq).Uint64()
			if got := m.ReduceWide(hi, lo); got != want {
				t.Fatalf("ReduceWide(%d,%d) mod %d = %d, want %d", hi, lo, q, got, want)
			}
		}
	}
}

func TestPow(t *testing.T) {
	m := NewModulus(1000000007)
	if got := m.Pow(2, 30); got != 73741817 {
		t.Errorf("2^30 mod 1e9+7 = %d, want 73741817", got)
	}
	// Fermat: a^(p-1) == 1 mod p.
	for _, a := range []uint64{2, 3, 999999999} {
		if got := m.Pow(a, m.Value-1); got != 1 {
			t.Errorf("%d^(p-1) = %d, want 1", a, got)
		}
	}
}

func TestInvProperty(t *testing.T) {
	q := uint64((1 << 58) - 27) // prime? verify first
	if !IsPrime(q) {
		t.Skip("modulus not prime; pick another in the test")
	}
	m := NewModulus(q)
	f := func(a uint64) bool {
		a %= q
		if a == 0 {
			_, ok := m.Inv(a)
			return !ok
		}
		inv, ok := m.Inv(a)
		return ok && m.Mul(a, inv) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInvNonInvertible(t *testing.T) {
	m := NewModulus(12) // composite
	if _, ok := m.Inv(4); ok {
		t.Error("4 should not be invertible mod 12")
	}
	if inv, ok := m.Inv(5); !ok || m.Mul(5, inv) != 1 {
		t.Error("5 should be invertible mod 12")
	}
}

func TestMulShoup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, q := range []uint64{12289, (1 << 58) - 27, 2305843009213693951} {
		if !IsPrime(q) {
			continue
		}
		m := NewModulus(q)
		for i := 0; i < 200; i++ {
			a := rng.Uint64() % q
			w := rng.Uint64() % q
			ws := m.ShoupPrecomp(w)
			if got, want := m.MulShoup(a, w, ws), m.Mul(a, w); got != want {
				t.Fatalf("MulShoup(%d,%d) mod %d = %d, want %d", a, w, q, got, want)
			}
		}
	}
}

// TestShoupPrecompIsTheQuotient holds the Barrett-estimated Shoup
// companion to its definition, floor(w·2^64/q) by a 128-by-64 division,
// at moduli from 2 to 61 bits, for random w < q and at 0, 1, q/2 and q−1.
func TestShoupPrecompIsTheQuotient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, q := range []uint64{2, 3, 12289, 68719403009, 137438822401, (1 << 58) - 27, 2305843009213693951, 1<<61 - 1} {
		m := NewModulus(q)
		ws := []uint64{0, 1, q / 2, q - 1}
		for i := 0; i < 2000; i++ {
			ws = append(ws, rng.Uint64()%q)
		}
		for _, w := range ws {
			want, _ := bits.Div64(w, 0, q)
			if got := m.ShoupPrecomp(w); got != want {
				t.Fatalf("ShoupPrecomp(%d) mod %d = %d, floor(w·2^64/q) = %d", w, q, got, want)
			}
		}
	}
}

func TestMulAddProperty(t *testing.T) {
	q := uint64(65537)
	m := NewModulus(q)
	f := func(a, b, c uint64) bool {
		a, b, c = a%q, b%q, c%q
		return m.MulAdd(a, b, c) == (a*b+c)%q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkModMul(b *testing.B) {
	m := NewModulus((1 << 58) - 27)
	x := uint64(123456789012345)
	for i := 0; i < b.N; i++ {
		x = m.Mul(x, x|1)
	}
	sinkU64 = x
}

func BenchmarkModMulShoup(b *testing.B) {
	m := NewModulus((1 << 58) - 27)
	w := uint64(987654321)
	ws := m.ShoupPrecomp(w)
	x := uint64(123456789012345)
	for i := 0; i < b.N; i++ {
		x = m.MulShoup(x, w, ws)
	}
	sinkU64 = x
}

var sinkU64 uint64

// TestBranchlessBoundaries pins the compare-mask Add/Sub/Neg/Reduce
// forms at the extremes of their contracts: operands at q-1 (so sums
// land just under 2q and differences straddle the borrow), and Reduce
// inputs swept densely around every multiple of q near 2q and at the
// top of the uint64 range. The reference is plain big-integer modular
// arithmetic, so a mask polarity or shift mistake at any boundary
// value cannot hide.
func TestBranchlessBoundaries(t *testing.T) {
	moduli := []uint64{2, 3, 17, 65537, (1 << 58) - 27, (1 << 61) - 1, 1152921504606830593}
	for _, q := range moduli {
		m := NewModulus(q)
		edge := []uint64{0, 1, q / 2, q - 2, q - 1}
		for _, a := range edge {
			for _, b := range edge {
				if a >= q || b >= q {
					continue
				}
				if got, want := m.Add(a, b), (a%q+b%q)%q; got != want {
					t.Fatalf("q=%d Add(%d,%d)=%d want %d", q, a, b, got, want)
				}
				wantSub := (a + q - b) % q
				if got := m.Sub(a, b); got != wantSub {
					t.Fatalf("q=%d Sub(%d,%d)=%d want %d", q, a, b, got, wantSub)
				}
			}
			if a < q {
				if got, want := m.Neg(a), (q-a)%q; got != want {
					t.Fatalf("q=%d Neg(%d)=%d want %d", q, a, got, want)
				}
			}
		}
		// Reduce: dense windows around 0, q, 2q (the lazy-arithmetic
		// ceiling the ring kernels accumulate to), 3q, and 2^64.
		var probes []uint64
		for _, center := range []uint64{0, q, 2 * q, 3 * q} {
			for d := uint64(0); d <= 4; d++ {
				probes = append(probes, center+d)
				if center >= d { // below-center probe without wraparound
					probes = append(probes, center-d)
				}
			}
		}
		probes = append(probes, ^uint64(0), ^uint64(0)-1, ^uint64(0)-q)
		for _, a := range probes {
			if got, want := m.Reduce(a), a%q; got != want {
				t.Fatalf("q=%d Reduce(%d)=%d want %d", q, a, got, want)
			}
		}
	}
}

// TestReduceExhaustiveSmallModulus sweeps Reduce over every residue
// class boundary for a small modulus across the full quotient range a
// Barrett estimate can mis-round in.
func TestReduceExhaustiveSmallModulus(t *testing.T) {
	m := NewModulus(12289)
	for a := uint64(0); a < 12289*8; a++ {
		if got := m.Reduce(a); got != a%12289 {
			t.Fatalf("Reduce(%d)=%d want %d", a, got, a%12289)
		}
	}
}
