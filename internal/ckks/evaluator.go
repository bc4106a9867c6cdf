package ckks

import (
	"fmt"
	"math"

	"choco/internal/ring"
	"choco/internal/rlwe"
)

// Evaluator applies homomorphic operations. Scales must match for
// additive operations; the evaluator enforces this rather than silently
// mis-scaling.
type Evaluator struct {
	ctx    *Context
	relin  *RelinearizationKey
	galois map[uint64]*GaloisKey
}

// NewEvaluator returns an evaluator; relin and galois may be nil if
// multiplication/rotation are unused.
func NewEvaluator(ctx *Context, relin *RelinearizationKey, galois map[uint64]*GaloisKey) *Evaluator {
	return &Evaluator{ctx: ctx, relin: relin, galois: galois}
}

func scalesMatch(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(a, b)
}

// Add returns a + b; levels and scales must match.
func (ev *Evaluator) Add(a, b *Ciphertext) (*Ciphertext, error) {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("Add", a, b)
	}
	if a.Level != b.Level {
		return nil, fmt.Errorf("ckks: level mismatch %d vs %d", a.Level, b.Level)
	}
	if !scalesMatch(a.Scale, b.Scale) {
		return nil, fmt.Errorf("ckks: scale mismatch %g vs %g", a.Scale, b.Scale)
	}
	return &Ciphertext{Value: rlwe.Add(ev.ctx.RingAtLevel(a.Level), a.Value, b.Value), Level: a.Level, Scale: a.Scale}, nil
}

// Sub returns a - b.
func (ev *Evaluator) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	nb := ev.ctx.CopyCt(b)
	r := ev.ctx.RingAtLevel(b.Level)
	for _, p := range nb.Value {
		r.Neg(p, p)
	}
	return ev.Add(a, nb)
}

// SubPlain returns ct - pt; levels and scales must match.
func (ev *Evaluator) SubPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("SubPlain", ct)
	}
	if ct.Level != pt.Level {
		return nil, fmt.Errorf("ckks: level mismatch %d vs %d", ct.Level, pt.Level)
	}
	if !scalesMatch(ct.Scale, pt.Scale) {
		return nil, fmt.Errorf("ckks: scale mismatch %g vs %g", ct.Scale, pt.Scale)
	}
	r := ev.ctx.RingAtLevel(ct.Level)
	out := ev.ctx.CopyCt(ct)
	r.Sub(out.Value[0], pt.Poly, out.Value[0])
	return out, nil
}

// Neg returns -ct.
func (ev *Evaluator) Neg(ct *Ciphertext) *Ciphertext {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("Neg", ct)
	}
	r := ev.ctx.RingAtLevel(ct.Level)
	out := ev.ctx.CopyCt(ct)
	for _, p := range out.Value {
		r.Neg(p, p)
	}
	return out
}

// MulPlain returns ct ⊙ pt for a plaintext PrepareMulPlain readied, so a
// plaintext used many times is transformed, and its Shoup companions
// computed, once, by its owner: each ciphertext component is
// transformed at ct.Level, multiplied by a Shoup product and transformed
// back. The result scale is the product of scales.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("MulPlain", ct)
	}
	if ct.Level != pt.Level {
		return nil, fmt.Errorf("ckks: level mismatch %d vs %d", ct.Level, pt.Level)
	}
	if pt.shoup == nil {
		return nil, fmt.Errorf("ckks: MulPlain needs a plaintext PrepareMulPlain readied")
	}
	r := ev.ctx.RingAtLevel(ct.Level)
	out := &Ciphertext{Value: make([]*ring.Poly, len(ct.Value)), Level: ct.Level, Scale: ct.Scale * pt.Scale}
	for i, p := range ct.Value {
		q := r.CopyPoly(p)
		r.NTT(q)
		r.MulCoeffsShoup(q, pt.Poly, pt.shoup, q)
		r.INTT(q)
		out.Value[i] = q
	}
	return out, nil
}

// MulScalar multiplies every slot by a real constant, encoding the
// constant at the default scale (result scale = ct.Scale · 2^LogScale).
func (ev *Evaluator) MulScalar(ct *Ciphertext, c float64) (*Ciphertext, error) {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("MulScalar", ct)
	}
	scale := ev.ctx.Params.DefaultScale()
	r := ev.ctx.RingAtLevel(ct.Level)
	// A constant is a degree-0 plaintext: all slots equal c means the
	// polynomial is the constant round(c·scale).
	v := int64(math.Round(c * scale))
	out := ev.ctx.CopyCt(ct)
	for _, p := range out.Value {
		if v >= 0 {
			r.MulScalar(p, uint64(v), p)
		} else {
			r.MulScalar(p, uint64(-v), p)
			r.Neg(p, p)
		}
	}
	out.Scale = ct.Scale * scale
	return out, nil
}

// Mul returns the degree-2 tensor product; relinearize to return to
// degree 1. The result scale is the product of scales.
func (ev *Evaluator) Mul(a, b *Ciphertext) (*Ciphertext, error) {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("Mul", a, b)
	}
	if len(a.Value) != 2 || len(b.Value) != 2 {
		return nil, fmt.Errorf("ckks: Mul requires degree-1 inputs")
	}
	if a.Level != b.Level {
		return nil, fmt.Errorf("ckks: level mismatch %d vs %d", a.Level, b.Level)
	}
	r := ev.ctx.RingAtLevel(a.Level)
	ntt := func(p *ring.Poly) *ring.Poly {
		q := r.GetPoly()
		r.Copy(q, p)
		r.NTT(q)
		return q
	}
	a0, a1 := ntt(a.Value[0]), ntt(a.Value[1])
	b0, b1 := ntt(b.Value[0]), ntt(b.Value[1])

	t0 := r.NewPoly()
	t1 := r.NewPoly()
	t2 := r.NewPoly()
	tmp := r.GetPoly()
	r.MulCoeffs(a0, b0, t0)
	r.MulCoeffs(a0, b1, t1)
	r.MulCoeffs(a1, b0, tmp)
	r.Add(t1, tmp, t1)
	r.MulCoeffs(a1, b1, t2)
	r.INTT(t0)
	r.INTT(t1)
	r.INTT(t2)
	r.PutPoly(tmp)
	r.PutPoly(a0)
	r.PutPoly(a1)
	r.PutPoly(b0)
	r.PutPoly(b1)
	return &Ciphertext{Value: []*ring.Poly{t0, t1, t2}, Level: a.Level, Scale: a.Scale * b.Scale}, nil
}

// Relinearize reduces a degree-2 ciphertext to degree 1.
func (ev *Evaluator) Relinearize(ct *Ciphertext) (*Ciphertext, error) {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("Relinearize", ct)
	}
	if len(ct.Value) != 3 {
		return nil, fmt.Errorf("ckks: Relinearize requires degree 2")
	}
	if ev.relin == nil {
		return nil, fmt.Errorf("ckks: no relinearization key")
	}
	// Decompose hoists the second polynomial it is given: here c2.
	var dc rlwe.Decomposed
	ev.ctx.Decompose(&dc, ct.Value[1:], ct.Level)
	d0, d1 := dc.SwitchKey(ev.relin.Key)
	dc.Release()
	r := ev.ctx.RingAtLevel(ct.Level)
	out := &Ciphertext{
		Value: []*ring.Poly{r.NewPoly(), r.NewPoly()},
		Level: ct.Level,
		Scale: ct.Scale,
	}
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

// Rescale drops the top prime of the ciphertext, dividing the
// underlying values (and the scale) by that prime.
func (ev *Evaluator) Rescale(ct *Ciphertext) (*Ciphertext, error) {
	if rlwe.DebugEnabled {
		ev.ctx.debugCheckCt("Rescale", ct)
	}
	if ct.Level == 0 {
		return nil, fmt.Errorf("ckks: cannot rescale below level 0")
	}
	qL := ev.ctx.RingQ.Moduli[ct.Level].Value
	out := &Ciphertext{
		Value: make([]*ring.Poly, len(ct.Value)),
		Level: ct.Level - 1,
		Scale: ct.Scale / float64(qL),
	}
	for vi, p := range ct.Value {
		out.Value[vi] = ev.ctx.DivRoundByLastModulus(p, ct.Level)
	}
	return out, nil
}

// DropLevel re-expresses a ciphertext at a lower level without scaling
// (simply discarding residues). Useful to align operand levels.
func (ev *Evaluator) DropLevel(ct *Ciphertext, level int) (*Ciphertext, error) {
	if level > ct.Level || level < 0 {
		return nil, fmt.Errorf("ckks: cannot drop from level %d to %d", ct.Level, level)
	}
	out := &Ciphertext{Value: make([]*ring.Poly, len(ct.Value)), Level: level, Scale: ct.Scale}
	for i, p := range ct.Value {
		out.Value[i] = ev.ctx.RingAtLevel(level).Prefix(p)
	}
	return out, nil
}

// RotateLeft rotates slots left by steps (negative = right). Requires
// the matching Galois key. It is the hoisted path with a decomposition
// used once, so a serial RotateLeft loop and a hoisted batch are
// byte-identical by construction.
func (ev *Evaluator) RotateLeft(ct *Ciphertext, steps int) (*Ciphertext, error) {
	if steps == 0 {
		return ev.ctx.CopyCt(ct), nil
	}
	dc, err := ev.Decompose(ct)
	if err != nil {
		return nil, err
	}
	defer dc.Release()
	return ev.RotateLeftDecomposed(dc, steps)
}

// RotationKey returns the Galois key of a left rotation by steps, for
// every rotation path and internal/core's executor.
func (ev *Evaluator) RotationKey(steps int) (*GaloisKey, error) {
	return ev.ctx.GaloisKey(ev.galois, ev.ctx.GaloisElementForRotation(steps))
}

// Context returns the parameter context the evaluator computes in.
func (ev *Evaluator) Context() *Context { return ev.ctx }

// Conjugate conjugates every slot.
func (ev *Evaluator) Conjugate(ct *Ciphertext) (*Ciphertext, error) {
	gk, err := ev.ctx.GaloisKey(ev.galois, ev.ctx.GaloisElementConjugate())
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
