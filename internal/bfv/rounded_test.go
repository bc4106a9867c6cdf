package bfv

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"choco/internal/ring"
	"choco/internal/sampling"
)

// roundedCases are the levels and widths the rounding tests run: every
// drop level of every preset, at the widths the rule gives there and at
// the edges of the range (1 bit, and the widest the level allows).
func roundedCases(t *testing.T) []struct {
	name  string
	ctx   *Context
	drop  int
	width int
} {
	var out []struct {
		name  string
		ctx   *Context
		drop  int
		width int
	}
	for _, p := range []struct {
		name   string
		params Parameters
	}{{"Test", PresetTest()}, {"B", PresetB()}, {"A", PresetA()}} {
		ctx, err := NewContext(p.params)
		if err != nil {
			t.Fatal(err)
		}
		for drop := 0; drop <= ctx.MaxDrop(); drop++ {
			r := ctx.RingAtDrop(drop)
			widest := min(63, r.ModulusBits()-1)
			for _, d := range []int{1, p.params.ReplyBits(), p.params.UploadBits(70), p.params.UploadBits(380), widest} {
				if d <= widest {
					out = append(out, struct {
						name  string
						ctx   *Context
						drop  int
						width int
					}{fmt.Sprintf("%s/drop%d/d%d", p.name, drop, d), ctx, drop, d})
				}
			}
		}
	}
	return out
}

// roundedFields unpacks AppendRounded's fields of x at every coefficient.
func roundedFields(t *testing.T, ctx *Context, x *ring.Poly, d int) []uint64 {
	t.Helper()
	n := len(x.Coeffs[0])
	data := ctx.AppendRounded(nil, x, d, nil)
	out := make([]uint64, n)
	if err := ring.UnpackFields(data, n, uint(d), math.MaxUint64, func(i int, v uint64) { out[i] = v }); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRoundedMatchesBigInt: the client's rounding — the folded pass and
// its fallback — is, word for word, round(c0·2^d/Q) mod 2^d computed over
// big.Int from c0's uncentered CRT composition, at every preset, level
// and width of roundedCases, on uniform residues and on values within a
// few units of a rounding boundary (2k+1)·Q/2^(d+1), where the folded
// pass hands the coefficient to roundOracle. A pass restricted to read
// indices packs the same fields at those indices.
func TestRoundedMatchesBigInt(t *testing.T) {
	src := sampling.NewSource([32]byte{46}, "rounded-oracle")
	rng := rand.New(rand.NewSource(46))
	for _, tc := range roundedCases(t) {
		r := tc.ctx.RingAtDrop(tc.drop)
		bigQ := r.ModulusBig()
		twoD := new(big.Int).Lsh(big.NewInt(1), uint(tc.width))
		for _, boundary := range []bool{false, true} {
			vals := make([]*big.Int, r.N)
			for j := range vals {
				if !boundary {
					vals[j] = new(big.Int).Rand(rng, bigQ)
					continue
				}
				k := new(big.Int).Rand(rng, twoD)
				v := k.Lsh(k, 1).Add(k, big.NewInt(1)).Mul(k, bigQ)
				v.Div(v, new(big.Int).Lsh(twoD, 1))
				vals[j] = v.Add(v, big.NewInt(int64(src.Intn(5))-2)).Mod(v, bigQ)
			}
			vals[0], vals[1] = big.NewInt(0), new(big.Int).Sub(bigQ, big.NewInt(1))
			x := r.NewPoly()
			r.SetCoeffsBigint(vals, x)
			got := roundedFields(t, tc.ctx, x, tc.width)
			for j, v := range vals {
				want := new(big.Int).Lsh(v, uint(tc.width))
				want = roundDiv(want, bigQ)
				if want.Mod(want, twoD); got[j] != want.Uint64() {
					t.Fatalf("%s coefficient %d (%v, boundary %v): rounded to %d, big.Int says %d", tc.name, j, v, boundary, got[j], want)
				}
			}
			idx := []int{0, 3, 5, r.N - 1}
			data := tc.ctx.AppendRounded(nil, x, tc.width, idx)
			if err := ring.UnpackFields(data, len(idx), uint(tc.width), math.MaxUint64, func(i int, v uint64) {
				if v != got[idx[i]] {
					t.Fatalf("%s: read %d packs %d, the whole pass %d", tc.name, idx[i], v, got[idx[i]])
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestLiftWithinOne: the receiving side's lift of a d-bit field r is,
// composed over big.Int, within 1 of r·Q/2^d at every residue of every
// level and width of roundedCases — the upload's lift at the full data
// modulus and the reply's at the one residue it is sent at alike — and
// rounds back to r, so a rounded frame has one encoding. Read indices
// lift alone and leave the other coefficients as they were.
func TestLiftWithinOne(t *testing.T) {
	src := sampling.NewSource([32]byte{47}, "rounded-lift")
	for _, tc := range roundedCases(t) {
		r := tc.ctx.RingAtDrop(tc.drop)
		bigQ := r.ModulusBig()
		mask := uint64(1)<<tc.width - 1
		x := r.NewPoly()
		fields := make([]uint64, r.N)
		for j := range fields {
			fields[j] = src.Uint64() & mask
		}
		fields[0], fields[1] = 0, mask
		copy(x.Coeffs[0], fields)
		tc.ctx.LiftRounded(x, tc.width, nil)
		vals := make([]*big.Int, r.N)
		r.PolyToBigintCentered(x, vals)
		twoD := new(big.Int).Lsh(big.NewInt(1), uint(tc.width))
		for j, v := range vals {
			v.Mod(v, bigQ).Lsh(v, uint(tc.width)) // x·2^d, against r·Q
			if diff := v.Sub(v, new(big.Int).Mul(new(big.Int).SetUint64(fields[j]), bigQ)); diff.CmpAbs(twoD) > 0 {
				t.Fatalf("%s coefficient %d: field %d lifts more than 1 away from r·Q/2^d", tc.name, j, fields[j])
			}
		}
		if back := roundedFields(t, tc.ctx, x, tc.width); !equalWords(back, fields) {
			t.Fatalf("%s: the lifted fields round back to other fields", tc.name)
		}
		y := r.NewPoly()
		for i := range y.Coeffs {
			for j := range y.Coeffs[i] {
				y.Coeffs[i][j] = 7
			}
		}
		idx := []int{2, 9}
		for _, j := range idx {
			y.Coeffs[0][j] = fields[j]
		}
		tc.ctx.LiftRounded(y, tc.width, idx)
		for i := range y.Coeffs {
			if y.Coeffs[i][2] != x.Coeffs[i][2] || y.Coeffs[i][9] != x.Coeffs[i][9] || y.Coeffs[i][3] != 7 {
				t.Fatalf("%s residue %d: a lift at read indices differs from the whole lift there, or touched another coefficient", tc.name, i)
			}
		}
	}
}

func equalWords(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// TestOneWordScaleMatchesOracle: at every preset whose one residue q₀
// has t·q₀ < 2^63 (Test and B; A's 58-bit q₀ and 23-bit t do not), the
// one-word scaling that decrypts every served reply is, word for word,
// scaleOracleInto's, on uniform phases, on phases within two units of
// every kind of rounding boundary (2k+1)·q₀/(2t), and at 0 and q₀ − 1.
func TestOneWordScaleMatchesOracle(t *testing.T) {
	src := sampling.NewSource([32]byte{48}, "one-word-scale")
	for _, tc := range []struct {
		name   string
		params Parameters
		serves bool
	}{{"Test", PresetTest(), true}, {"B", PresetB(), true}, {"A", PresetA(), false}} {
		ctx, err := NewContext(tc.params)
		if err != nil {
			t.Fatal(err)
		}
		drop := ctx.MaxDrop()
		if got := ctx.scalers[drop].oneWord != 0; got != tc.serves {
			t.Fatalf("%s: the one-word path serves one residue: %v, want %v", tc.name, got, tc.serves)
		}
		if !tc.serves {
			continue
		}
		r := ctx.RingAtDrop(drop)
		q, tv := r.Moduli[0].Value, ctx.T.Value
		x := r.NewPoly()
		row := x.Coeffs[0]
		src.UniformMod(row[:r.N/2], q)
		for j := r.N / 2; j < r.N; j++ {
			k := uint64(src.Intn(int(tv)))
			b := new(big.Int).SetUint64(2*k + 1)
			b.Mul(b, new(big.Int).SetUint64(q)).Div(b, new(big.Int).SetUint64(2*tv))
			row[j] = (b.Uint64() + q + uint64(src.Intn(5)) - 2) % q
		}
		row[0], row[1] = 0, q-1
		fast, oracle := make([]uint64, r.N), make([]uint64, r.N)
		ctx.scaleCenteredInto(x, drop, nil, fast)
		ctx.scaleOracleInto(r, x, oracle)
		for j := range fast {
			if fast[j] != oracle[j] {
				t.Fatalf("%s coefficient %d (phase %d): one word gives %d, the oracle %d", tc.name, j, row[j], fast[j], oracle[j])
			}
		}
	}
}

// TestRoundedWidths pins the rule (Parameters.ReplyBits, UploadBits): at
// bfv-B a reply takes 31 bits and LeNet-Sm's uploads 38, 38 and 40 (its
// kernels' ℓ2 bounds: 10·7 for conv1's 100 4-bit weights a tile, √300·7
// for conv2's, √2940·7 for the FC's); each width is the least whose
// rounding, at its deviation, is half the switch's σ; and the caps hold
// where the rule asks for more than the modulus or a field allows.
func TestRoundedWidths(t *testing.T) {
	b := PresetB()
	if got := b.ReplyBits(); got != 31 {
		t.Errorf("bfv-B replies at %d bits, want 31", got)
	}
	for _, tc := range []struct {
		norm float64
		want int
	}{{70, 38}, {math.Sqrt(300) * 7, 38}, {math.Sqrt(2940) * 7, 40}} {
		if got := b.UploadBits(tc.norm); got != tc.want {
			t.Errorf("bfv-B upload under a kernel of ℓ2 norm %.1f: %d bits, want %d", tc.norm, got, tc.want)
		}
	}
	for _, p := range []Parameters{PresetTest(), b, PresetA()} {
		sigma := math.Sqrt(float64(p.N()+1) / 12)
		qr := math.Exp2(float64(p.replyModulusBits()))
		d := p.ReplyBits()
		if dev := qr / math.Exp2(float64(d)) / math.Sqrt(12); dev > sigma/2 || 2*dev <= sigma/2 {
			t.Errorf("%+v: a %d-bit reply's rounding deviates %.1f, want the least width within σ/2 = %.1f", p, d, dev, sigma/2)
		}
	}
	onePrime := Parameters{LogN: 11, QBits: []int{60}, PBits: 61, TBits: 16, Sigma: 3.2}
	if got := onePrime.UploadBits(1e6); got != 59 {
		t.Errorf("a 60-bit modulus takes %d-bit uploads under a wide kernel, want 59 (2^d below the modulus)", got)
	}
}

// BenchmarkRounded times the upload's round-and-pack pass and its lift at
// bfv-B: one 40-bit upload of N = 4 096 coefficients over two residues;
// and a reply's pass, 3 136 reads (conv1's count) of one residue at the
// reply width.
func BenchmarkRounded(b *testing.B) {
	ctx, err := NewContext(PresetB())
	if err != nil {
		b.Fatal(err)
	}
	src := sampling.NewSource([32]byte{49}, "rounded-bench")
	x := ctx.RingQ.NewPoly()
	for i, m := range ctx.RingQ.Moduli {
		src.UniformMod(x.Coeffs[i], m.Value)
	}
	buf := ctx.AppendRounded(nil, x, 40, nil)
	b.Run("round", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = ctx.AppendRounded(buf[:0], x, 40, nil)
		}
	})
	b.Run("lift", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx.LiftRounded(x, 40, nil)
		}
	})
	reply := ctx.RingAtDrop(1).NewPoly()
	src.UniformMod(reply.Coeffs[0], ctx.RingQ.Moduli[0].Value)
	reads := make([]int, 3136)
	for k := range reads {
		reads[k] = k * 4096 / len(reads)
	}
	d := ctx.Params.ReplyBits()
	b.Run("read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = ctx.AppendRounded(buf[:0], reply, d, reads)
		}
	})
}
