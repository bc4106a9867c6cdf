package rlwe_test

import (
	"math"
	"testing"

	"choco/internal/bfv"
	"choco/internal/ckks"
	"choco/internal/ring"
	"choco/internal/rlwe"
)

// The inner-sum accumulator under both schemes: BFV at its one level,
// the top, and CKKS at a level below the top, where the key ring
// (q0..ql, p) is a view of the full one.

// ckksChain is a three-level CKKS chain at N = 2048 whose middle level
// holds a product of two 2^40 scales.
var ckksChain = ckks.Parameters{LogN: 11, QBits: []int{50, 40, 40}, PBits: 51, LogScale: 40, Sigma: 3.2}

var bfvPresets = []struct {
	name   string
	params bfv.Parameters
}{
	{"PresetTest", bfv.PresetTest()},
	{"PresetA", bfv.PresetA()},
	{"PresetB", bfv.PresetB()},
}

type bfvKit struct {
	ctx *bfv.Context
	sk  *bfv.SecretKey
	enc *bfv.Encryptor
	dec *bfv.Decryptor
	ecd *bfv.Encoder
	ev  *bfv.Evaluator
}

func newBFVKit(t testing.TB, params bfv.Parameters, rotSteps ...int) *bfvKit {
	t.Helper()
	ctx, err := bfv.NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	kg := bfv.NewKeyGenerator(ctx, [32]byte{1, 2, 3})
	sk := kg.GenSecretKey()
	return &bfvKit{
		ctx: ctx,
		sk:  sk,
		enc: bfv.NewEncryptor(ctx, kg.GenPublicKey(sk), [32]byte{7}),
		dec: bfv.NewDecryptor(ctx, sk),
		ecd: bfv.NewEncoder(ctx),
		ev:  bfv.NewEvaluator(ctx, nil, kg.GenRotationKeys(sk, rotSteps...)),
	}
}

type ckksKit struct {
	ctx *ckks.Context
	enc *ckks.Encryptor
	dec *ckks.Decryptor
	ecd *ckks.Encoder
	ev  *ckks.Evaluator
}

func newCKKSKit(t testing.TB, rotSteps ...int) *ckksKit {
	t.Helper()
	ctx, err := ckks.NewContext(ckksChain)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, [32]byte{4, 5, 6})
	sk := kg.GenSecretKey()
	return &ckksKit{
		ctx: ctx,
		enc: ckks.NewEncryptor(ctx, kg.GenPublicKey(sk), [32]byte{8}),
		dec: ckks.NewDecryptor(ctx, sk),
		ecd: ckks.NewEncoder(ctx),
		ev:  ckks.NewEvaluator(ctx, nil, kg.GenRotationKeys(sk, rotSteps...)),
	}
}

// freshBelowTop encrypts a ramp under the CKKS kit and drops it one
// level, returning the ciphertext and its slot values.
func (k *ckksKit) freshBelowTop(t testing.TB) (*ckks.Ciphertext, []float64) {
	t.Helper()
	vals := make([]float64, k.ctx.Params.Slots())
	for i := range vals {
		vals[i] = float64(i%17)/4 - 2
	}
	ct, err := k.enc.EncryptFloats(vals)
	if err != nil {
		t.Fatal(err)
	}
	if ct, err = k.ev.DropLevel(ct, ct.Level-1); err != nil {
		t.Fatal(err)
	}
	return ct, vals
}

func ramp(n int, mod uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i) % mod
	}
	return out
}

// lift returns a degree-1 ciphertext's resident form at its level:
// P·NTT(c) over (q0..ql, p), whose special-prime row is zero.
func lift(ctx *rlwe.Context, level int, value []*ring.Poly) []*ring.Poly {
	return []*ring.Poly{ctx.LiftNTT(level, value[0]), ctx.LiftNTT(level, value[1])}
}

func recycle(ctx *rlwe.Context, level int, x []*ring.Poly) {
	for _, p := range x {
		ctx.KeyRingAtLevel(level).PutPoly(p)
	}
}

// mulPlainChain is the reduced product-and-sum over the data ring r: each
// term's components through a forward NTT, multiplied by the data rows of
// its lifted plaintext, back through the inverse NTT, then added in order.
func mulPlainChain(r *ring.Ring, terms [][]*ring.Poly, pts []*ring.Poly) []*ring.Poly {
	sum := []*ring.Poly{r.NewPoly(), r.NewPoly()}
	for k, x := range terms {
		for h := range sum {
			tmp := r.CopyPoly(x[h])
			r.NTT(tmp)
			r.MulCoeffs(tmp, r.Prefix(pts[k]), tmp)
			r.INTT(tmp)
			r.Add(sum[h], tmp, sum[h])
		}
	}
	return sum
}

func polysEqual(r *ring.Ring, a, b []*ring.Poly) bool {
	for h := range a {
		if !r.Equal(a[h], b[h]) {
			return false
		}
	}
	return true
}

// TestMulPlainAccMatchesMulPlainChain pins the lazy inner sum on lifted
// operands, on every BFV preset and at a CKKS level below the top: the
// lift P·NTT(c) has a zero special-prime row, so the divide-by-P that
// closes the chain is exact and the result is the reduced multiply-and-add
// chain on the ciphertexts themselves (under BFV its MulPlain + Add),
// byte for byte. That is the level-2 rung of the hoisting ladder.
func TestMulPlainAccMatchesMulPlainChain(t *testing.T) {
	for _, tc := range bfvPresets {
		t.Run(tc.name, func(t *testing.T) {
			kit := newBFVKit(t, tc.params, 1, 2)
			n := kit.ctx.Params.N()
			ct, err := kit.enc.EncryptUints(ramp(n, kit.ctx.T.Value))
			if err != nil {
				t.Fatal(err)
			}
			rots, err := kit.ev.RotateRowsHoisted(ct, []int{1, 2})
			if err != nil {
				t.Fatal(err)
			}
			terms := []*bfv.Ciphertext{ct, rots[0], rots[1]}
			pms := make([]*bfv.PlaintextMul, len(terms))
			for i := range pms {
				vals := make([]int64, n)
				for j := range vals {
					vals[j] = int64((i*37+j)%11) - 5
				}
				pt, err := kit.ecd.EncodeInts(vals)
				if err != nil {
					t.Fatal(err)
				}
				pms[i] = kit.ev.PrepareMul(pt)
			}

			var serial *bfv.Ciphertext
			for i, x := range terms {
				term := kit.ev.MulPlain(x, pms[i])
				if serial == nil {
					serial = term
				} else {
					serial = kit.ev.Add(serial, term)
				}
			}

			level := kit.ctx.MaxLevel()
			acc := kit.ctx.NewNTTAccumulator(level)
			for i, x := range terms {
				nx := lift(kit.ctx.Context, level, x.Value)
				kit.ctx.MulPlainAcc(acc, nx, pms[i].NTT)
				recycle(kit.ctx.Context, level, nx)
			}
			c0, c1 := kit.ctx.FromNTT(acc)
			if !polysEqual(kit.ctx.RingQ, serial.Value, []*ring.Poly{c0, c1}) {
				t.Error("lazy multiply-accumulate over lifted operands differs from the MulPlain+Add chain")
			}
		})
	}
	t.Run("CKKS/belowTop", func(t *testing.T) {
		kit := newCKKSKit(t, 1, 2)
		ct, _ := kit.freshBelowTop(t)
		rots, err := kit.ev.RotateLeftHoisted(ct, []int{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		level := ct.Level
		terms := [][]*ring.Poly{ct.Value, rots[0].Value, rots[1].Value}
		pts := make([]*ring.Poly, len(terms))
		for i := range pts {
			w := make([]float64, kit.ctx.Params.Slots())
			for j := range w {
				w[j] = float64((i*37+j)%11)/8 - 0.5
			}
			if pts[i], err = kit.ecd.EncodeFloatsQP(w, level, kit.ctx.Params.DefaultScale()); err != nil {
				t.Fatal(err)
			}
		}
		acc := kit.ctx.NewNTTAccumulator(level)
		for i, x := range terms {
			nx := lift(kit.ctx.Context, level, x)
			kit.ctx.MulPlainAcc(acc, nx, pts[i])
			recycle(kit.ctx.Context, level, nx)
		}
		c0, c1 := kit.ctx.FromNTT(acc)
		r := kit.ctx.RingAtLevel(level)
		if !polysEqual(r, mulPlainChain(r, terms, pts), []*ring.Poly{c0, c1}) {
			t.Error("lazy multiply-accumulate over lifted operands differs from the reduced multiply-and-add chain")
		}
	})
}

// TestMulPlainAccOneRounding is the point of keeping the babies in the
// key ring: an inner sum of resident rotations decrypts to what the same
// sum of materialized rotations decrypts to, and has paid one rounding
// for the whole sum where the materialized one paid one per rotation,
// each scaled by its plaintext — so it is no noisier. Under BFV the
// decryptions are equal and the noise budget is no smaller; under CKKS,
// below the top, the slot error is no larger.
func TestMulPlainAccOneRounding(t *testing.T) {
	steps := []int{0, 1, 2, 5, -1, 3, -3, 7}
	t.Run("BFV/PresetB", func(t *testing.T) {
		kit := newBFVKit(t, bfv.PresetB(), steps[1:]...)
		n := kit.ctx.Params.N()
		ct, err := kit.enc.EncryptUints(ramp(n, kit.ctx.T.Value))
		if err != nil {
			t.Fatal(err)
		}
		dc, err := kit.ev.Decompose(ct)
		if err != nil {
			t.Fatal(err)
		}
		defer dc.Release()
		var serial *bfv.Ciphertext
		acc := kit.ctx.NewNTTAccumulator(kit.ctx.MaxLevel())
		for i, s := range steps {
			vals := make([]int64, n)
			for j := range vals {
				vals[j] = int64((i*37+j)%15) - 7
			}
			pt, err := kit.ecd.EncodeInts(vals)
			if err != nil {
				t.Fatal(err)
			}
			pm := kit.ev.PrepareMul(pt)
			mat, err := kit.ev.RotateRowsDecomposed(dc, s)
			if err != nil {
				t.Fatal(err)
			}
			if term := kit.ev.MulPlain(mat, pm); serial == nil {
				serial = term
			} else {
				serial = kit.ev.Add(serial, term)
			}
			x, err := kit.ev.RotateRowsLazyNTT(dc, s)
			if err != nil {
				t.Fatal(err)
			}
			kit.ctx.MulPlainAcc(acc, x.Value, pm.NTT)
			kit.ev.RecycleNTT(x)
		}
		c0, c1 := kit.ctx.FromNTT(acc)
		lazy := &bfv.Ciphertext{Value: []*ring.Poly{c0, c1}}
		want, got := kit.dec.Decrypt(serial), kit.dec.Decrypt(lazy)
		if !kit.ctx.RingT.Equal(want.Poly, got.Poly) {
			t.Fatal("the resident inner sum decrypts differently from the materialized one")
		}
		was, now := bfv.NoiseBudgetBits(kit.ctx, kit.sk, serial), bfv.NoiseBudgetBits(kit.ctx, kit.sk, lazy)
		t.Logf("inner sum of %d rotations at bfv-B: a rounding per rotation leaves %.2f bits, one per sum %.2f", len(steps), was, now)
		if now < was-0.05 {
			t.Errorf("one rounding per inner sum leaves %.2f bits, one per rotation %.2f: the resident sum may not cost noise", now, was)
		}
	})
	t.Run("CKKS/belowTop", func(t *testing.T) {
		kit := newCKKSKit(t, steps[1:]...)
		ct, vals := kit.freshBelowTop(t)
		level, slots, scale := ct.Level, kit.ctx.Params.Slots(), kit.ctx.Params.DefaultScale()
		dc, err := kit.ev.Decompose(ct)
		if err != nil {
			t.Fatal(err)
		}
		defer dc.Release()
		want := make([]float64, slots)
		var materialized [][]*ring.Poly
		pts := make([]*ring.Poly, len(steps))
		acc := kit.ctx.NewNTTAccumulator(level)
		for i, s := range steps {
			w := make([]float64, slots)
			for j := range w {
				w[j] = float64((i*37+j)%15)/7 - 1
				want[j] += w[j] * vals[((j+s)%slots+slots)%slots]
			}
			if pts[i], err = kit.ecd.EncodeFloatsQP(w, level, scale); err != nil {
				t.Fatal(err)
			}
			mat, err := kit.ev.RotateLeftDecomposed(dc, s)
			if err != nil {
				t.Fatal(err)
			}
			materialized = append(materialized, mat.Value)
			x := lift(kit.ctx.Context, level, ct.Value)
			if s != 0 {
				gk, err := kit.ev.RotationKey(s)
				if err != nil {
					t.Fatal(err)
				}
				recycle(kit.ctx.Context, level, x)
				c0, c1 := dc.RotateNTT(gk)
				x = []*ring.Poly{c0, c1}
			}
			kit.ctx.MulPlainAcc(acc, x, pts[i])
			recycle(kit.ctx.Context, level, x)
		}
		c0, c1 := kit.ctx.FromNTT(acc)
		maxErr := func(value []*ring.Poly) float64 {
			got := kit.dec.DecryptFloats(&ckks.Ciphertext{Value: value, Level: level, Scale: ct.Scale * scale})
			e := 0.0
			for j := range want {
				e = max(e, math.Abs(got[j]-want[j]))
			}
			return e
		}
		was := maxErr(mulPlainChain(kit.ctx.RingAtLevel(level), materialized, pts))
		now := maxErr([]*ring.Poly{c0, c1})
		t.Logf("inner sum of %d rotations at CKKS level %d: a rounding per rotation leaves a slot error of 2^%.2f, one per sum 2^%.2f", len(steps), level, math.Log2(was), math.Log2(now))
		if math.Log2(now) > math.Log2(was)+0.05 {
			t.Errorf("one rounding per inner sum leaves a slot error of 2^%.2f, one per rotation 2^%.2f: the resident sum may not cost precision", math.Log2(now), math.Log2(was))
		}
	})
}
