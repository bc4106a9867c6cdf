package core

import (
	"fmt"
	"sync"

	"choco/internal/bfv"
)

// The product packing (DESIGN.md §15). With coefficient encoding, a
// convolution or a matrix-vector product is one negacyclic polynomial
// product: the client writes its input into plaintext coefficients, the
// server multiplies the ciphertext by one kernel polynomial built from
// the weights, and every output lands on a coefficient of its own. No
// rotation runs, so the layer needs no Galois key; the client decrypts
// between layers anyway, so each layer picks its packing alone.
//
//   - Conv2D: input (c, y, x) sits at c·Hp·Wp + (y+ph)·Wp + (x+pw), tap
//     (o, c, a, b) at base(o) − (c·Hp·Wp + a·Wp + b), where base(o) =
//     o·C·Hp·Wp + (C−1)·Hp·Wp + (KH−1)·Wp + (KW−1), and output (o, i, j)
//     is read at base(o) + i·Wp + j;
//   - FC: input i sits at i, row r's weight i at r·In + In − 1 − i, and
//     output r is read at r·In + In − 1.
//
// A layer takes it when every output fits one polynomial: the last read
// coefficient, OutC·C·Hp·Wp − 1 (Out·In − 1 for FC), lies below N. The
// negacyclic wrap then lands only below the first read coefficient, so
// no output reads it: the highest term, the last input pixel times the
// last output's highest tap, sits at OutC·C·Hp·Wp − 1 − ph·Wp − pw +
// base(0) (Out·In − 1 + In − 1 for FC), less than N + base(0) (N + In − 1).
// Every other coefficient of the product holds a partial sum of weights ×
// inputs, which the threat model allows: the model is not hidden from the
// client (DESIGN.md §13).

// kernel is a product-packed operator's one kernel polynomial, lifted
// into the data ring of each context that has asked for it: fixed by the
// weights and the context, so it is built once and read by every session
// without a PlainCache lookup.
type kernel struct {
	coeffs func() []int64

	mu     sync.Mutex
	lifted map[*bfv.Context]*bfv.PlaintextQ
}

func newKernel(coeffs func() []int64) *kernel {
	return &kernel{coeffs: coeffs, lifted: map[*bfv.Context]*bfv.PlaintextQ{}}
}

func (k *kernel) in(ctx *bfv.Context) *bfv.PlaintextQ {
	k.mu.Lock()
	defer k.mu.Unlock()
	pt := k.lifted[ctx]
	if pt == nil {
		pt = ctx.PrepareMulQ(k.coeffs())
		k.lifted[ctx] = pt
	}
	return pt
}

// apply runs one input through the layer: the one Q-only plaintext
// product by the kernel. n is the ring degree the layout was built for.
func (k *kernel) apply(ev *bfv.Evaluator, ct *bfv.Ciphertext, n int) (*bfv.Ciphertext, OpCounts, error) {
	if len(ct.Value) != 2 || ct.Drop != 0 {
		return nil, OpCounts{}, fmt.Errorf("core: a linear layer requires a degree-1 full-modulus ciphertext")
	}
	ctx := ev.Context()
	if ctx.Params.N() != n {
		return nil, OpCounts{}, fmt.Errorf("core: layer packed for N=%d, context has N=%d", n, ctx.Params.N())
	}
	return ev.MulPlainQ(ct, k.in(ctx)), OpCounts{PlainMults: 1}, nil
}

// productPlan is the cost-sheet entry of a product-packed layer: one
// plaintext product, no key switch.
var productPlan = RotationPlan{PlainMults: 1}

// centerMod reduces v mod m into (−m/2, m/2].
func centerMod(v, m int64) int64 {
	if v = (v%m + m) % m; v > m/2 {
		v -= m
	}
	return v
}

// productBase returns base(o), the coefficient of output channel o's
// first output and of its kernel's highest tap.
func (c *Conv2D) productBase(o int) int {
	hw := c.Hp * c.Wp
	return o*c.Spec.InC*hw + (c.Spec.InC-1)*hw + (c.Spec.KH-1)*c.Wp + c.Spec.KW - 1
}

// fitsProduct reports whether every output fits one polynomial.
func (c *Conv2D) fitsProduct() bool {
	return c.Spec.OutC*c.Spec.InC*c.Hp*c.Wp <= 2*c.rowSize
}

// productKernel lays the weights out as the kernel polynomial.
func (c *Conv2D) productKernel() []int64 {
	s := c.Spec
	hw := c.Hp * c.Wp
	k := make([]int64, 2*c.rowSize)
	for o := 0; o < s.OutC; o++ {
		base := c.productBase(o)
		for ch := 0; ch < s.InC; ch++ {
			for a := 0; a < s.KH; a++ {
				for b := 0; b < s.KW; b++ {
					k[base-(ch*hw+a*c.Wp+b)] = c.Weights[o][ch][a*s.KW+b]
				}
			}
		}
	}
	return k
}

// fitsProduct reports whether every output fits one polynomial. A square
// layer never takes the product packing (NewFCSpecOnly).
func (f *FC) fitsProduct() bool { return f.Out*f.In <= 2*f.rowSize }

// productKernel lays the weights out as the kernel polynomial.
func (f *FC) productKernel() []int64 {
	k := make([]int64, 2*f.rowSize)
	for r, row := range f.Weights {
		for i, w := range row {
			k[r*f.In+f.In-1-i] = w
		}
	}
	return k
}
