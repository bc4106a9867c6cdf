package bfv

import (
	"fmt"
	"math"
	"math/big"

	"choco/internal/ring"
	"choco/internal/rlwe"
)

// Evaluator applies homomorphic operations server-side. It is stateless
// apart from the evaluation keys it was given; methods allocate their
// results.
type Evaluator struct {
	ctx     *Context
	encoder *Encoder
	relin   *RelinearizationKey
	galois  map[uint64]*GaloisKey
}

// NewEvaluator returns an evaluator. relin and galois may be nil when
// multiplication / rotation are not needed.
func NewEvaluator(ctx *Context, relin *RelinearizationKey, galois map[uint64]*GaloisKey) *Evaluator {
	return &Evaluator{ctx: ctx, encoder: NewEncoder(ctx), relin: relin, galois: galois}
}

// Add returns a + b (ciphertext addition, small noise growth). The
// operands must sit at the same modulus level.
func (ev *Evaluator) Add(a, b *Ciphertext) *Ciphertext {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("Add", a, b)
	}
	if a.Drop != b.Drop {
		panic("bfv: adding ciphertexts at different modulus levels")
	}
	return &Ciphertext{Value: rlwe.Add(ev.ctx.RingAtDrop(a.Drop), a.Value, b.Value), Drop: a.Drop}
}

// Sub returns a - b.
func (ev *Evaluator) Sub(a, b *Ciphertext) *Ciphertext {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("Sub", a, b)
	}
	r := ev.ctx.RingAtDrop(b.Drop)
	neg := &Ciphertext{Value: make([]*ring.Poly, len(b.Value)), Drop: b.Drop}
	for i, p := range b.Value {
		neg.Value[i] = r.NewPoly()
		r.Neg(p, neg.Value[i])
	}
	return ev.Add(a, neg)
}

// Neg returns -a.
func (ev *Evaluator) Neg(a *Ciphertext) *Ciphertext {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("Neg", a)
	}
	r := ev.ctx.RingAtDrop(a.Drop)
	out := &Ciphertext{Value: make([]*ring.Poly, len(a.Value)), Drop: a.Drop}
	for i, p := range a.Value {
		out.Value[i] = r.NewPoly()
		r.Neg(p, out.Value[i])
	}
	return out
}

// AddPlain returns ct + pt (plaintext addition: c0 += Δ·m).
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("AddPlain", ct)
	}
	if ct.Drop != 0 {
		panic("bfv: plaintext operations require a full-modulus ciphertext")
	}
	r := ev.ctx.RingQ
	out := ev.ctx.CopyCt(ct)
	dm := ev.encoder.liftToQScaled(pt)
	r.Add(out.Value[0], dm, out.Value[0])
	return out
}

// MulScalar multiplies every slot by an unsigned integer constant —
// cheaper than a full plaintext multiply (no NTT round trip) and with
// scalar-sized noise growth.
func (ev *Evaluator) MulScalar(ct *Ciphertext, c uint64) *Ciphertext {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("MulScalar", ct)
	}
	r := ev.ctx.RingAtDrop(ct.Drop)
	out := &Ciphertext{Value: make([]*ring.Poly, len(ct.Value)), Drop: ct.Drop}
	cc := ev.ctx.T.Reduce(c)
	for i, p := range ct.Value {
		out.Value[i] = r.NewPoly()
		r.MulScalar(p, cc, out.Value[i])
	}
	return out
}

// PlaintextMul is a plaintext operand lifted to the key ring QP and
// pre-transformed to the NTT domain, ready for repeated use (e.g. fixed
// model weights): rlwe.Context.MulPlainAcc multiplies QP-resident
// ciphertexts by all of its rows, MulPlain reads the data rows.
type PlaintextMul struct {
	NTT *ring.Poly
	q   *ring.Poly // the data rows of NTT as a polynomial of RingQ
}

// PrepareMul lifts and NTT-transforms a plaintext for multiplication.
func (ev *Evaluator) PrepareMul(pt *Plaintext) *PlaintextMul {
	p := ev.encoder.liftToQP(pt)
	ev.ctx.RingQP.NTT(p)
	return &PlaintextMul{NTT: p, q: ev.ctx.RingQ.Prefix(p)}
}

// MulPlain returns ct ⊙ pt (slot-wise product with an unencrypted
// vector; moderate noise growth, O(N log N · r) per Table 1).
func (ev *Evaluator) MulPlain(ct *Ciphertext, pm *PlaintextMul) *Ciphertext {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("MulPlain", ct)
		ev.ctx.debugCheckPlainQ("MulPlain", pm.q)
	}
	return ev.mulQ(ct, pm.q)[0]
}

// PlaintextQ is a plaintext operand held over the data ring Q alone, in
// the NTT domain: small signed integer coefficients lifted centered, not
// reduced mod t, so a product with it grows the noise by the operand's
// ℓ1 norm where a dense batch-encoded plaintext grows it by about N·t.
// With no special-prime row it never enters a key switch. It is the
// kernel of a coefficient-packed layer (MulPlainQ).
type PlaintextQ struct {
	NTT *ring.Poly
}

// PrepareMulQ lifts small signed coefficients centered into Q and
// NTT-transforms them, once per operand.
func (ctx *Context) PrepareMulQ(coeffs []int64) *PlaintextQ {
	p := ctx.RingQ.NewPoly()
	ctx.RingQ.SetCoeffsInt64(coeffs, p)
	ctx.RingQ.NTT(p)
	return &PlaintextQ{NTT: p}
}

// MulPlainQ returns ct·k, the negacyclic polynomial product of a
// full-modulus ciphertext with a PlaintextQ: it decrypts to m·k mod t,
// where m is the plaintext's coefficient polynomial and k the operand's
// integer one. One forward NTT, dyadic product and inverse NTT per
// component, over Q.
func (ev *Evaluator) MulPlainQ(ct *Ciphertext, k *PlaintextQ) *Ciphertext {
	return ev.MulPlainQTiles(ct, []*PlaintextQ{k})[0]
}

// MulPlainQTiles returns ct·k for every k of ks, in order: one product
// per tile of a layer whose outputs span several kernel polynomials. The
// input is transformed once; each tile costs one dyadic product and one
// inverse NTT per component, and its output is byte for byte the
// MulPlainQ of the same kernel.
func (ev *Evaluator) MulPlainQTiles(ct *Ciphertext, ks []*PlaintextQ) []*Ciphertext {
	polys := make([]*ring.Poly, len(ks))
	for j, k := range ks {
		if rlwe.DebugEnabled {
			ev.ctx.debugCheckPlainQ("MulPlainQ", k.NTT)
		}
		polys[j] = k.NTT
	}
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("MulPlainQ", ct)
	}
	return ev.mulQ(ct, polys...)
}

// mulQ multiplies each component of ct by each NTT-domain polynomial of
// ks of RingQ, one ciphertext per polynomial, results from the ring's
// scratch pool. Each component is transformed once.
func (ev *Evaluator) mulQ(ct *Ciphertext, ks ...*ring.Poly) []*Ciphertext {
	if ct.Drop != 0 {
		panic("bfv: plaintext operations require a full-modulus ciphertext")
	}
	r := ev.ctx.RingQ
	outs := make([]*Ciphertext, len(ks))
	for j := range outs {
		outs[j] = &Ciphertext{Value: make([]*ring.Poly, len(ct.Value))}
	}
	for i, p := range ct.Value {
		x := r.GetPoly()
		r.Copy(x, p)
		r.NTT(x)
		for j, k := range ks {
			tmp := x // the last product overwrites the transformed input
			if j < len(ks)-1 {
				tmp = r.GetPoly()
			}
			r.MulCoeffs(x, k, tmp)
			r.INTT(tmp)
			outs[j].Value[i] = tmp
		}
	}
	return outs
}

// Mul returns the degree-2 tensor product of two degree-1 ciphertexts,
// computed exactly in an extended RNS basis and scaled by t/q (large
// noise growth, O(N log N · r²) per Table 1). Call Relinearize to
// return to degree 1.
func (ev *Evaluator) Mul(a, b *Ciphertext) (*Ciphertext, error) {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("Mul", a, b)
	}
	if len(a.Value) != 2 || len(b.Value) != 2 {
		return nil, fmt.Errorf("bfv: Mul requires degree-1 inputs (got %d, %d)", a.Degree(), b.Degree())
	}
	if a.Drop != 0 || b.Drop != 0 {
		return nil, fmt.Errorf("bfv: Mul requires full-modulus ciphertexts")
	}
	ctx := ev.ctx
	rQ := ctx.RingQ
	rE := ctx.ringE
	n := ctx.Params.N()

	// Lift all four polynomials to centered big coefficients and embed
	// into the extended basis E (large enough that the tensor product
	// is exact over E).
	lift := func(p *ring.Poly) *ring.Poly {
		vals := make([]*big.Int, n)
		// Exact through big integers: no request path multiplies BFV ciphertexts.
		rQ.PolyToBigintCentered(p, vals)
		out := rE.GetPoly()
		rE.SetCoeffsBigint(vals, out)
		rE.NTT(out)
		return out
	}
	a0, a1 := lift(a.Value[0]), lift(a.Value[1])
	b0, b1 := lift(b.Value[0]), lift(b.Value[1])

	t0 := rE.GetPoly()
	t1 := rE.GetPoly()
	t2 := rE.GetPoly()
	rE.MulCoeffs(a0, b0, t0)
	rE.MulCoeffs(a1, b1, t2)
	rE.MulCoeffs(a0, b1, t1)
	tmp := rE.GetPoly()
	rE.MulCoeffs(a1, b0, tmp)
	rE.Add(t1, tmp, t1)
	rE.PutPoly(tmp)
	rE.PutPoly(a0)
	rE.PutPoly(a1)
	rE.PutPoly(b0)
	rE.PutPoly(b1)

	// Scale each tensor component by t/Q with rounding, then reduce
	// back into the data basis.
	out := &Ciphertext{Value: make([]*ring.Poly, 3)}
	bt := new(big.Int).SetUint64(ctx.T.Value)
	num := new(big.Int)
	for i, tp := range []*ring.Poly{t0, t1, t2} {
		rE.INTT(tp)
		vals := make([]*big.Int, n)
		rE.PolyToBigintCentered(tp, vals)
		for j := range vals {
			num.Mul(vals[j], bt)
			vals[j] = roundDiv(num, ctx.BigQ)
		}
		out.Value[i] = rQ.NewPoly()
		rQ.SetCoeffsBigint(vals, out.Value[i])
		rE.PutPoly(tp)
	}
	return out, nil
}

// Relinearize reduces a degree-2 ciphertext to degree 1 using the
// relinearization key.
func (ev *Evaluator) Relinearize(ct *Ciphertext) (*Ciphertext, error) {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("Relinearize", ct)
	}
	if len(ct.Value) != 3 {
		return nil, fmt.Errorf("bfv: Relinearize requires a degree-2 ciphertext")
	}
	if ev.relin == nil {
		return nil, fmt.Errorf("bfv: no relinearization key")
	}
	// Decompose hoists the second polynomial it is given: here c2.
	var dc rlwe.Decomposed
	ev.ctx.Decompose(&dc, ct.Value[1:], ev.ctx.MaxLevel())
	d0, d1 := dc.SwitchKey(ev.relin.Key)
	dc.Release()
	r := ev.ctx.RingQ
	out := &Ciphertext{Value: []*ring.Poly{r.NewPoly(), r.NewPoly()}}
	r.Add(ct.Value[0], d0, out.Value[0])
	r.Add(ct.Value[1], d1, out.Value[1])
	r.PutPoly(d0)
	r.PutPoly(d1)
	return out, nil
}

// MulRelin multiplies and relinearizes.
func (ev *Evaluator) MulRelin(a, b *Ciphertext) (*Ciphertext, error) {
	c, err := ev.Mul(a, b)
	if err != nil {
		return nil, err
	}
	return ev.Relinearize(c)
}

// RotateRows rotates the two batched rows left by steps slots
// (negative steps rotate right). Requires the corresponding Galois key.
// It is the hoisted path with a decomposition used once, so a serial
// RotateRows loop and a hoisted batch are byte-identical by construction.
func (ev *Evaluator) RotateRows(ct *Ciphertext, steps int) (*Ciphertext, error) {
	if steps == 0 {
		return ev.ctx.CopyCt(ct), nil
	}
	dc, err := ev.Decompose(ct)
	if err != nil {
		return nil, err
	}
	defer dc.Release()
	return ev.RotateRowsDecomposed(dc, steps)
}

// RotationKey returns the Galois key of a row rotation by steps, for
// every rotation path and internal/core's executor.
func (ev *Evaluator) RotationKey(steps int) (*GaloisKey, error) {
	return ev.ctx.GaloisKey(ev.galois, ev.ctx.RingQ.GaloisElementForRotation(steps))
}

// Context returns the parameter context the evaluator computes in.
func (ev *Evaluator) Context() *Context { return ev.ctx }

// RotateColumns swaps the two rows of the batching matrix.
func (ev *Evaluator) RotateColumns(ct *Ciphertext) (*Ciphertext, error) {
	gk, err := ev.ctx.GaloisKey(ev.galois, ev.ctx.RingQ.GaloisElementRowSwap())
	if err != nil {
		return nil, err
	}
	dc, err := ev.Decompose(ct)
	if err != nil {
		return nil, err
	}
	defer dc.Release()
	return ev.applyGaloisDecomposed(dc, gk), nil
}

// ModSwitchDown divides the ciphertext by its last data prime with
// rounding, shrinking it by one residue (8·N·deg bytes on the wire) at
// the cost of the rounding noise Parameters.ReplyDrop bounds. It is the
// last step before a result is transmitted — compute at full modulus,
// switch down ReplyDrop times, send small (nn.ServerSession does) — and
// the result's polynomials come from the lower level's pool. Dropped
// ciphertexts support addition and decryption only.
func (ev *Evaluator) ModSwitchDown(ct *Ciphertext) (*Ciphertext, error) {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("ModSwitchDown", ct)
	}
	ctx := ev.ctx
	if ct.Drop >= ctx.MaxDrop() {
		return nil, fmt.Errorf("bfv: cannot modulus-switch below one residue")
	}
	out := &Ciphertext{Value: make([]*ring.Poly, len(ct.Value)), Drop: ct.Drop + 1}
	for vi, p := range ct.Value {
		if p.IsNTT() {
			return nil, fmt.Errorf("bfv: modulus switch requires coefficient domain")
		}
		out.Value[vi] = ctx.DivRoundByLastModulus(p, ctx.MaxLevel()-ct.Drop)
	}
	return out, nil
}

// NoiseBudgetBits returns the remaining invariant noise budget of ct in
// bits, using SEAL's definition (the one the paper's Table 4
// tabulates): v = [t·(c0 + c1·s + ...)]_q centered, budget =
// log2(q / (2·‖v‖∞)). The t-multiplication folds the r_t(q)·m
// encoding term into the measurement from encryption onward, so
// rotations — whose automorphism sign-flips would otherwise surface
// that term — correctly register as nearly free. A budget of 0 means
// the ciphertext is (about to become) undecryptable.
func NoiseBudgetBits(ctx *Context, sk *SecretKey, ct *Ciphertext) float64 {
	r := ctx.RingAtDrop(ct.Drop)
	x, v := r.NewPoly(), r.NewPoly()
	ctx.PhaseInto(sk, ct.Value, ctx.MaxLevel()-ct.Drop, x)
	r.MulScalar(x, ctx.T.Value, v)
	// A measurement for experiments and tests: no request path reads the budget.
	norm := r.InfNormBig(v)
	if norm.Sign() == 0 {
		norm.SetInt64(1)
	}
	return math.Max(0, log2Big(r.ModulusBig())-1-log2Big(norm))
}

// NoiseBudget is NoiseBudgetBits in whole bits, rounded down.
func NoiseBudget(ctx *Context, sk *SecretKey, ct *Ciphertext) int {
	return int(NoiseBudgetBits(ctx, sk, ct))
}

// log2Big returns log2 of a positive big integer.
func log2Big(x *big.Int) float64 {
	mant := new(big.Float)
	exp := new(big.Float).SetInt(x).MantExp(mant)
	m, _ := mant.Float64()
	return float64(exp) + math.Log2(m)
}
