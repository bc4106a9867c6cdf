package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// presetDistance is distance.PresetDistance (that package imports this
// one): the knn-ckks-pipe workload's parameter set.
func presetDistance() Parameters {
	return Parameters{LogN: 13, QBits: []int{50, 40, 40}, PBits: 51, LogScale: 40, Sigma: 3.2}
}

var encoderPresets = []struct {
	name   string
	params func() Parameters
}{
	{"Test", PresetTest},
	{"C", PresetC},
	{"Distance", presetDistance},
}

func constant(nh int, x float64) []complex128 {
	v := make([]complex128, nh)
	for i := range v {
		v[i] = complex(x, 0)
	}
	return v
}

func samePoly(a, b *Plaintext) error {
	if a.Level != b.Level || a.Scale != b.Scale || len(a.Poly.Coeffs) != len(b.Poly.Coeffs) {
		return fmt.Errorf("level/scale/rows %d/%v/%d vs %d/%v/%d",
			a.Level, a.Scale, len(a.Poly.Coeffs), b.Level, b.Scale, len(b.Poly.Coeffs))
	}
	for i := range a.Poly.Coeffs {
		for j, v := range a.Poly.Coeffs[i] {
			if w := b.Poly.Coeffs[i][j]; v != w {
				return fmt.Errorf("residue %d coefficient %d: %d vs %d", i, j, v, w)
			}
		}
	}
	return nil
}

func sameFloats(got, want []complex128) error {
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			return fmt.Errorf("slot %d: %v vs %v", i, got[i], want[i])
		}
	}
	return nil
}

// TestEncodeMatchesBigOracle holds EncodeComplex to the big-integer
// encoder byte for byte, or both to an error, at every level of three
// parameter sets. A constant vector x at scale 1 puts exactly x in
// coefficient 0 (the FFT's differences are exact zeros and its sums
// exact doublings), which is how the magnitudes below reach the word and
// 2^e paths and the ⌊Q_ℓ/2⌋ boundary.
func TestEncodeMatchesBigOracle(t *testing.T) {
	for _, ps := range encoderPresets {
		ctx, err := NewContext(ps.params())
		if err != nil {
			t.Fatal(err)
		}
		ecd := NewEncoder(ctx)
		nh := ctx.Params.Slots()
		rng := rand.New(rand.NewSource(22))
		for level := 0; level <= ctx.Params.MaxLevel(); level++ {
			type tc struct {
				name   string
				values []complex128
				scale  float64
			}
			var cases []tc
			for _, x := range []float64{0.5, 1.5, 2.5, 0x1p51 + 0.5, 0x1p52 - 0.5, 0x1p52 - 1, 0x1p52 + 1,
				0x1p53, 0x1p62, 0x1p63, 0x1p64 + 0x1p11} {
				cases = append(cases, tc{fmt.Sprintf("%g", x), constant(nh, x), 1}, tc{fmt.Sprintf("-%g", x), constant(nh, -x), 1})
			}
			// above is the first float that rounds past ⌊Q_ℓ/2⌋ (a tie,
			// rounded away, where floats are that fine), under the last
			// one that does not.
			limit := ctx.codec.coeffLimit[level]
			above := math.Nextafter(limit, math.Inf(1))
			if limit < 0x1p52 {
				above = limit + 0.5
			}
			under := math.Nextafter(above, 0)
			for _, b := range []struct {
				name string
				x    float64
			}{{"limit", limit}, {"under", under}, {"above", above}} {
				cases = append(cases, tc{b.name, constant(nh, b.x), 1}, tc{"-" + b.name, constant(nh, -b.x), 1})
			}
			for k := 0; k < 3; k++ {
				re, cplx, wide := make([]complex128, nh), make([]complex128, nh/3), make([]complex128, nh)
				for i := range re {
					re[i] = complex(rng.Float64()*16-8, 0)
					wide[i] = complex(rng.NormFloat64()*0x1p20, rng.NormFloat64())
				}
				for i := range cplx {
					cplx[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
				}
				cases = append(cases,
					tc{"random real", re, ctx.Params.DefaultScale()},
					tc{"random complex", cplx, ctx.Params.DefaultScale()},
					tc{"random wide", wide, 0x1p30})
			}
			for _, c := range cases {
				got, gotErr := ecd.EncodeComplex(c.values, level, c.scale)
				want, wantErr := encodeOracle(ctx, c.values, level, c.scale)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s level %d %s: error %v, oracle %v", ps.name, level, c.name, gotErr, wantErr)
				}
				if gotErr != nil {
					continue
				}
				if err := samePoly(got, want); err != nil {
					t.Fatalf("%s level %d %s: %v", ps.name, level, c.name, err)
				}
			}
			// The boundary cases must land on both sides of it.
			if _, err := ecd.EncodeComplex(constant(nh, -under), level, 1); err != nil {
				t.Errorf("%s level %d: %v, which rounds to -⌊Q/2⌋, refused: %v", ps.name, level, -under, err)
			}
			if _, err := ecd.EncodeComplex(constant(nh, above), level, 1); err == nil {
				t.Errorf("%s level %d: %v, which rounds past ⌊Q/2⌋, encoded", ps.name, level, above)
			}
		}
	}
}

// TestWordsFloat holds the setup-time word-integer conversion that
// builds the decode weights and the encode limits to big.Float's, to
// nearest and toward zero, on widths from 1 bit to 6 words.
func TestWordsFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for k := 0; k < 2000; k++ {
		words := make([]uint64, 1+rng.Intn(6))
		for i := range words {
			words[i] = rng.Uint64() >> rng.Intn(64)
			if rng.Intn(4) == 0 {
				words[i] = 0
			}
		}
		words[len(words)-1] >>= rng.Intn(64)
		x := new(big.Int)
		for i := len(words) - 1; i >= 0; i-- {
			x.Lsh(x, 64).Or(x, new(big.Int).SetUint64(words[i]))
		}
		wantNear, _ := new(big.Float).SetInt(x).Float64()
		wantDown, _ := new(big.Float).SetMode(big.ToZero).SetPrec(53).SetInt(x).Float64()
		near, down := wordsFloat(words)
		if near != wantNear || down != wantDown {
			t.Fatalf("%v: got %v / %v, want %v / %v", x, near, down, wantNear, wantDown)
		}
	}
}

// TestEncodeRejects pins the refusals: a non-finite slot, a slot whose
// coefficients overflow, and the Q/2 boundary itself. Each error names
// the slot. At PresetTest's level 0 (one 50-bit prime q) Q/2 = q/2 is a
// float: it rounds up to (q+1)/2, one past ⌊Q/2⌋, and the float below it
// rounds to ⌊Q/2⌋.
func TestEncodeRejects(t *testing.T) {
	ctx, err := NewContext(PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	ecd := NewEncoder(ctx)
	nh, top, scale := ctx.Params.Slots(), ctx.Params.MaxLevel(), ctx.Params.DefaultScale()
	q := ctx.RingQ.Moduli[0].Value
	half := float64(q) / 2
	below := math.Nextafter(half, 0)
	all := func(x float64) []float64 {
		v := make([]float64, nh)
		for i := range v {
			v[i] = x
		}
		return v
	}
	for _, c := range []struct {
		name   string
		values []float64
		level  int
		scale  float64
		slot   int // -1: encodes
		coeff0 uint64
	}{
		{"NaN", []float64{1, math.NaN(), 2}, top, scale, 1, 0},
		{"+Inf", []float64{1, 2, math.Inf(1)}, top, scale, 2, 0},
		{"-Inf", []float64{math.Inf(-1)}, top, scale, 0, 0},
		{"1e300", []float64{1, 2, 3, 1e300}, top, scale, 3, 0},
		{"Q/2", all(half), 0, 1, 0, 0},
		{"-Q/2", all(-half), 0, 1, 0, 0},
		{"below Q/2", all(below), 0, 1, -1, (q - 1) / 2},
		{"-below Q/2", all(-below), 0, 1, -1, q - (q-1)/2},
	} {
		pt, err := ecd.EncodeFloats(c.values, c.level, c.scale)
		if c.slot < 0 {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			} else if got := pt.Poly.Coeffs[0][0]; got != c.coeff0 {
				t.Errorf("%s: coefficient 0 = %d, want %d", c.name, got, c.coeff0)
			}
			continue
		}
		want := fmt.Sprintf("slot %d ", c.slot)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, want)
		}
		cv := make([]complex128, len(c.values))
		for i, v := range c.values {
			cv[i] = complex(v, 0)
		}
		if _, err := ecd.EncodeComplex(cv, c.level, c.scale); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: EncodeComplex error %v, want one naming %q", c.name, err, want)
		}
	}
	for _, s := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := ecd.EncodeFloats([]float64{1}, top, s); err == nil {
			t.Errorf("scale %v encoded", s)
		}
	}
	for _, l := range []int{-1, top + 1} {
		if _, err := ecd.EncodeFloats([]float64{1}, l, scale); err == nil {
			t.Errorf("level %d encoded", l)
		}
	}
}

// TestDecodeMatchesBigOracle holds DecodeComplex to the big-integer
// decoder: float for float on fresh encryptions at every level and after
// a multiply and one Rescale (centred coefficients below 2^53, where
// every step of the word path is exact), in the NTT domain too; and, on
// uniformly random residues and the centring boundaries, each
// coefficient's float within L ulps (relative 2^-52 each) of the exactly
// rounded big value.
func TestDecodeMatchesBigOracle(t *testing.T) {
	for _, ps := range encoderPresets {
		kit := newTestKit(t, ps.params())
		ctx := kit.ctx
		nh := ctx.Params.Slots()
		rng := rand.New(rand.NewSource(23))
		values := make([]float64, nh)
		for i := range values {
			values[i] = rng.Float64()*16 - 8
		}
		check := func(label string, pt *Plaintext) {
			t.Helper()
			if err := sameFloats(kit.ecd.DecodeComplex(pt), decodeOracle(ctx, pt)); err != nil {
				t.Fatalf("%s %s: %v", ps.name, label, err)
			}
		}
		for level := 0; level <= ctx.Params.MaxLevel(); level++ {
			pt, err := kit.ecd.EncodeFloats(values, level, ctx.Params.DefaultScale())
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("level %d plaintext", level), pt)
			ct := kit.enc.Encrypt(pt)
			dec := kit.dec.Decrypt(ct)
			check(fmt.Sprintf("level %d fresh", level), dec)
			r := ctx.RingAtLevel(level)
			r.NTT(dec.Poly)
			check(fmt.Sprintf("level %d NTT", level), dec)
		}
		ct, err := kit.enc.EncryptFloats(values)
		if err != nil {
			t.Fatal(err)
		}
		sq, err := kit.ev.MulRelin(ct, ct)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := kit.ev.Rescale(sq)
		if err != nil {
			t.Fatal(err)
		}
		check("rescaled", kit.dec.Decrypt(rs))

		for level := 0; level <= ctx.Params.MaxLevel(); level++ {
			r := ctx.RingAtLevel(level)
			L := level + 1
			p := r.NewPoly()
			for i, m := range r.Moduli {
				for j := range p.Coeffs[i] {
					p.Coeffs[i][j] = rng.Uint64() % m.Value
				}
			}
			// The centring boundaries, the exact-float edge, and minus the
			// top digit's weight (whose negation carries through every
			// digit) ride in the first coefficients.
			half := r.ModulusBig()
			half.Rsh(half, 1)
			weight := big.NewInt(1)
			for _, m := range r.Moduli[:level] {
				weight.Mul(weight, new(big.Int).SetUint64(m.Value))
			}
			edges := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(-1), half, new(big.Int).Neg(half),
				new(big.Int).Sub(half, big.NewInt(1)), big.NewInt(1 << 53), big.NewInt(-1<<53 - 1),
				new(big.Int).Neg(weight), new(big.Int).Neg(new(big.Int).SetUint64(r.Moduli[0].Value))}
			pt := &Plaintext{Poly: p, Level: level}
			coeffs := oracleCoeffs(ctx, pt)
			copy(coeffs, edges)
			r.SetCoeffsBigint(coeffs, p)
			coeffs = oracleCoeffs(ctx, pt) // centred: the edges past Q_ℓ/2 wrapped
			d := make([]uint64, L)
			for j, c := range coeffs {
				got, want := ctx.codec.liftFloat(p.Coeffs, r.Moduli, j, d), floatFromBig(c)
				if math.Abs(got-want) > float64(L)*0x1p-52*math.Abs(want) {
					t.Fatalf("%s level %d coefficient %d: %v, oracle %v (%v)", ps.name, level, j, got, want, c)
				}
				if c.CmpAbs(big.NewInt(1<<53)) <= 0 && got != want {
					t.Fatalf("%s level %d coefficient %v: %v, oracle %v", ps.name, level, c, got, want)
				}
			}
		}
	}
}

// FuzzEncodeCKKS feeds EncodeComplex arbitrary float64 bits as a slot
// value and a scale, at any level (or one off the chain): it must produce
// the big-integer encoder's bytes, or both must refuse.
func FuzzEncodeCKKS(f *testing.F) {
	ctx, err := NewContext(PresetTest())
	if err != nil {
		f.Fatal(err)
	}
	ecd := NewEncoder(ctx)
	nh := ctx.Params.Slots()
	for _, x := range []float64{0.5, -2.5, 0x1p52 + 1, 0x1p63, 1e300, math.NaN(), math.Inf(-1)} {
		f.Add(math.Float64bits(x), math.Float64bits(1), uint8(0), true)
		f.Add(math.Float64bits(x), math.Float64bits(ctx.Params.DefaultScale()), uint8(1), false)
	}
	f.Fuzz(func(t *testing.T, xb, sb uint64, level uint8, spread bool) {
		x, scale := math.Float64frombits(xb), math.Float64frombits(sb)
		l := int(level) % (ctx.Params.MaxLevel() + 2)
		values := constant(nh, x)
		if spread {
			values = []complex128{complex(x, 0), complex(-x/3, x), complex(x*0x1p-20, 0)}
		}
		got, gotErr := ecd.EncodeComplex(values, l, scale)
		want, wantErr := encodeOracle(ctx, values, l, scale)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("x=%v scale=%v level %d: error %v, oracle %v", x, scale, l, gotErr, wantErr)
		}
		if gotErr == nil {
			if err := samePoly(got, want); err != nil {
				t.Fatalf("x=%v scale=%v level %d: %v", x, scale, l, err)
			}
		}
	})
}

var (
	ptSink     *Plaintext
	floatsSink []float64
)

// TestEncodeDecodeAllocs pins the client's encode and decode to what
// they return: EncodeFloats allocates the plaintext (and one more object
// at most), DecodeFloats the slice.
func TestEncodeDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, ps := range encoderPresets[:2] {
		ctx, err := NewContext(ps.params())
		if err != nil {
			t.Fatal(err)
		}
		ecd := NewEncoder(ctx)
		level, scale := ctx.Params.MaxLevel(), ctx.Params.DefaultScale()
		vals := rampFloats(ctx.Params.Slots())
		pt, err := ecd.EncodeFloats(vals, level, scale)
		if err != nil {
			t.Fatal(err)
		}
		ecd.DecodeFloats(pt)
		returned := testing.AllocsPerRun(16, func() { ptSink = &Plaintext{Poly: ctx.RingAtLevel(level).NewPoly()} })
		if a := testing.AllocsPerRun(16, func() { ptSink, _ = ecd.EncodeFloats(vals, level, scale) }); a > returned+1 {
			t.Errorf("%s: EncodeFloats allocates %.1f objects/op, the plaintext it returns is %.1f", ps.name, a, returned)
		}
		returned = testing.AllocsPerRun(16, func() { floatsSink = make([]float64, ctx.Params.Slots()) })
		if a := testing.AllocsPerRun(16, func() { floatsSink = ecd.DecodeFloats(pt) }); a > returned+1 {
			t.Errorf("%s: DecodeFloats allocates %.1f objects/op, the slice it returns is %.1f", ps.name, a, returned)
		}
	}
}

// TestEncoderConcurrentUse shares one Encoder among 8 goroutines, as
// distance.Server's group fan-out does, and holds every output to the
// serial one.
func TestEncoderConcurrentUse(t *testing.T) {
	ctx, err := NewContext(PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	ecd := NewEncoder(ctx)
	const workers = 8
	level, scale := ctx.Params.MaxLevel(), ctx.Params.DefaultScale()
	inputs := make([][]float64, workers)
	serialPts := make([]*Plaintext, workers)
	serialVals := make([][]complex128, workers)
	for w := range inputs {
		inputs[w] = make([]float64, ctx.Params.Slots()-w)
		for i := range inputs[w] {
			inputs[w][i] = float64((i*(w+3))%29) - 14.5
		}
		if serialPts[w], err = ecd.EncodeFloats(inputs[w], level, scale); err != nil {
			t.Fatal(err)
		}
		serialVals[w] = ecd.DecodeComplex(serialPts[w])
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				pt, err := ecd.EncodeFloats(inputs[w], level, scale)
				if err != nil {
					t.Error(err)
					return
				}
				if err := samePoly(pt, serialPts[w]); err != nil {
					t.Errorf("worker %d encode: %v", w, err)
					return
				}
				if err := sameFloats(ecd.DecodeComplex(pt), serialVals[w]); err != nil {
					t.Errorf("worker %d decode: %v", w, err)
					return
				}
				got := ecd.DecodeFloats(pt)
				for i, v := range serialVals[w] {
					if got[i] != real(v) {
						t.Errorf("worker %d DecodeFloats slot %d: %v vs %v", w, i, got[i], real(v))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
