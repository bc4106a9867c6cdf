package bfv

import (
	"math/big"
	"testing"

	"choco/internal/sampling"
)

// TestRNSDecryptMatchesOracle pins exact equality between the
// RNS-native decryption and the big.Int reference oracle on fresh and
// modulus-switched ciphertexts at every preset and drop level.
func TestRNSDecryptMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params Parameters
	}{
		{"PresetTest", PresetTest()},
		{"PresetB", PresetB()},
		{"PresetA", PresetA()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kit := newTestKit(t, tc.params)
			vals := rampUints(tc.params.N(), kit.ctx.T.Value)
			ct, err := kit.enc.EncryptUints(vals)
			if err != nil {
				t.Fatal(err)
			}
			for drop := 0; ; drop++ {
				comparePlain(t, kit, ct, "drop", drop)
				if drop == kit.ctx.MaxDrop() {
					break
				}
				next, err := kit.ev.ModSwitchDown(ct)
				if err != nil {
					t.Fatal(err)
				}
				ct = next
			}
		})
	}
}

// TestRNSDecryptDegreeTwoAndThree covers unrelinearized products:
// phase accumulates c2·s² (and c3·s³ for the degree-3 case built by
// tensoring again is not supported by Mul, so degree 2 + a rotated
// addend exercises the multi-term loop).
func TestRNSDecryptDegreeTwoAndThree(t *testing.T) {
	kit := newTestKit(t, PresetTest())
	a, err := kit.enc.EncryptUints(rampUints(kit.ctx.Params.N(), 50))
	if err != nil {
		t.Fatal(err)
	}
	b, err := kit.enc.EncryptUints(rampUints(kit.ctx.Params.N(), 31))
	if err != nil {
		t.Fatal(err)
	}
	prod, err := kit.ev.Mul(a, b) // degree 2, no relinearization
	if err != nil {
		t.Fatal(err)
	}
	if prod.Degree() != 2 {
		t.Fatalf("expected degree-2 product, got %d", prod.Degree())
	}
	comparePlain(t, kit, prod, "degree", 2)
}

func comparePlain(t *testing.T, kit *testKit, ct *Ciphertext, label string, v int) {
	t.Helper()
	fast := kit.dec.Decrypt(ct)
	oracle := kit.dec.DecryptOracle(ct)
	fr, or := fast.Poly.Coeffs[0], oracle.Poly.Coeffs[0]
	for j := range fr {
		if fr[j] != or[j] {
			t.Fatalf("%s=%d: coeff %d: RNS %d != oracle %d", label, v, j, fr[j], or[j])
		}
	}
}

// TestRNSScaleAdversarialBoundaries drives the scaler with phase
// polynomials crafted to sit within a few ulps of the rounding
// boundaries x = (2k+1)·Q/(2t), where round(t·x/Q) flips — the worst
// case for the fixed-point fraction. Every drop ring is exercised.
func TestRNSScaleAdversarialBoundaries(t *testing.T) {
	ctx, err := NewContext(PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	src := sampling.NewSource([32]byte{13}, "rns-boundary")
	bigT := new(big.Int).SetUint64(ctx.T.Value)
	two := big.NewInt(2)
	for drop := 0; drop <= ctx.MaxDrop(); drop++ {
		r := ctx.RingAtDrop(drop)
		bigQ := r.ModulusBig()
		den := new(big.Int).Mul(bigT, two) // boundaries at (2k+1)·Q/(2t)
		vals := make([]*big.Int, r.N)
		for j := range vals {
			// Random odd multiple of Q/(2t), exact quotient, ±2 ulps.
			k := new(big.Int).SetUint64(uint64(src.Intn(int(ctx.T.Value))))
			k.Mul(k, two).Add(k, big.NewInt(1))
			v := new(big.Int).Mul(k, bigQ)
			v.Div(v, den)
			delta := int64(src.Intn(5)) - 2
			v.Add(v, big.NewInt(delta))
			v.Mod(v, bigQ)
			vals[j] = v
		}
		x := r.NewPoly()
		r.SetCoeffsBigint(vals, x)
		fast := make([]uint64, r.N)
		oracle := make([]uint64, r.N)
		ctx.scaleCenteredInto(x, drop, nil, fast)
		ctx.scaleOracleInto(r, x, oracle)
		for j := range fast {
			if fast[j] != oracle[j] {
				t.Fatalf("drop %d coeff %d (val %v): RNS %d != oracle %d",
					drop, j, vals[j], fast[j], oracle[j])
			}
		}
	}
}

// TestRNSScaleAmbiguityFallback forces the all-ones top-fraction-word
// band by scanning a dense window of consecutive values around a
// boundary, proving the oracle fallback engages without divergence.
func TestRNSScaleAmbiguityFallback(t *testing.T) {
	ctx, err := NewContext(PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	r := ctx.RingQ
	bigQ := r.ModulusBig()
	bigT := new(big.Int).SetUint64(ctx.T.Value)
	// Center the window on the first rounding boundary Q/(2t).
	base := new(big.Int).Div(bigQ, new(big.Int).Mul(bigT, big.NewInt(2)))
	vals := make([]*big.Int, r.N)
	half := int64(r.N / 2)
	for j := range vals {
		vals[j] = new(big.Int).Add(base, big.NewInt(int64(j)-half))
		vals[j].Mod(vals[j], bigQ)
	}
	x := r.NewPoly()
	r.SetCoeffsBigint(vals, x)
	fast := make([]uint64, r.N)
	oracle := make([]uint64, r.N)
	ctx.scaleCenteredInto(x, 0, nil, fast)
	ctx.scaleOracleInto(r, x, oracle)
	for j := range fast {
		if fast[j] != oracle[j] {
			t.Fatalf("coeff %d (val %v): RNS %d != oracle %d", j, vals[j], fast[j], oracle[j])
		}
	}
}

// FuzzRNSScaleMatchesOracle fuzzes the scaler directly: arbitrary seed
// material becomes a pseudorandom phase polynomial at an arbitrary
// drop level, and the RNS fast path must agree with the big.Int oracle
// exactly.
func FuzzRNSScaleMatchesOracle(f *testing.F) {
	ctx, err := NewContext(PresetTest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(0xdeadbeef), uint8(1))
	f.Add(^uint64(0), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, dropSel uint8) {
		drop := int(dropSel) % (ctx.MaxDrop() + 1)
		r := ctx.RingAtDrop(drop)
		var sd [32]byte
		for i := 0; i < 8; i++ {
			sd[i] = byte(seed >> (8 * i))
		}
		src := sampling.NewSource(sd, "rns-fuzz")
		x := r.NewPoly()
		for i, m := range r.Moduli {
			src.UniformMod(x.Coeffs[i], m.Value)
		}
		fast := make([]uint64, r.N)
		oracle := make([]uint64, r.N)
		ctx.scaleCenteredInto(x, drop, nil, fast)
		ctx.scaleOracleInto(r, x, oracle)
		for j := range fast {
			if fast[j] != oracle[j] {
				t.Fatalf("drop %d coeff %d: RNS %d != oracle %d", drop, j, fast[j], oracle[j])
			}
		}
	})
}
