package core

import (
	"fmt"
	"sync"

	"choco/internal/bfv"
)

// The product packing (DESIGN.md §15). With coefficient encoding, a
// convolution or a matrix-vector product is a negacyclic polynomial
// product: the client writes its input into plaintext coefficients, the
// server multiplies the ciphertext by a kernel polynomial built from the
// weights, and every output lands on a coefficient of its own. No
// rotation runs, so the layer needs no Galois key; the client decrypts
// between layers anyway, so each layer picks its packing alone.
//
//   - Conv2D: input (c, y, x) sits at c·Hp·Wp + (y+ph)·Wp + (x+pw). The
//     outputs split into tiles of T = ⌊N / (C·Hp·Wp)⌋ channels, one kernel
//     polynomial and one reply each: tap (o, c, a, b) of the tile's o-th
//     channel sits at base(o) − (c·Hp·Wp + a·Wp + b), where base(o) =
//     o·C·Hp·Wp + (C−1)·Hp·Wp + (KH−1)·Wp + (KW−1), and output (o, i, j)
//     is read at base(o) + i·Wp + j;
//   - FC: input i sits at i, row r's weight i at r·In + In − 1 − i, and
//     output r is read at r·In + In − 1.
//
// A convolution takes it whenever one output channel fits a polynomial,
// C·Hp·Wp ≤ N, and is refused otherwise; an FC layer takes it when all
// its outputs do, Out·In ≤ N. The last read coefficient of a tile,
// T·C·Hp·Wp − 1 (Out·In − 1 for FC), then lies below N, and the
// negacyclic wrap lands only below the first read coefficient, so no
// output reads it: the highest term, the last input pixel times the
// tile's last output's highest tap, sits at T·C·Hp·Wp − 1 − ph·Wp − pw +
// base(0) (Out·In − 1 + In − 1 for FC), less than N + base(0)
// (N + In − 1). Every other coefficient of the product holds a
// partial sum of weights × inputs; the reply carries c0 only at the read
// coefficients (ReadIndices, protocol.AppendBFVReadC0), so the client
// cannot decrypt those. It carries no c1: that is a·k switched down, and
// the client holds both a, its upload's, and k (bfv.Context.ProductC1).

// kernel is a product-packed operator's kernel polynomials, one per
// tile, lifted into the data ring of each context that has asked for
// them: fixed by the weights and the context, so they are built once and
// read by every session without a PlainCache lookup.
type kernel struct {
	coeffs func() [][]int64

	mu     sync.Mutex
	lifted map[*bfv.Context][]*bfv.PlaintextQ
}

func newKernel(coeffs func() [][]int64) *kernel {
	return &kernel{coeffs: coeffs, lifted: map[*bfv.Context][]*bfv.PlaintextQ{}}
}

func (k *kernel) in(ctx *bfv.Context) []*bfv.PlaintextQ {
	k.mu.Lock()
	defer k.mu.Unlock()
	pts := k.lifted[ctx]
	if pts == nil {
		for _, c := range k.coeffs() {
			pts = append(pts, ctx.PrepareMulQ(c))
		}
		k.lifted[ctx] = pts
	}
	return pts
}

// Kernels returns the layer's kernel polynomials lifted into ctx's data
// ring, one per output group, lifting them on the first call for ctx: a
// server calls it when it is built, so its first request pays no lift,
// and a client that completes product replies itself multiplies its
// uploads' a by them (bfv.Context.ProductC1). A spec-only layer has none.
func (c *Conv2D) Kernels(ctx *bfv.Context) []*bfv.PlaintextQ {
	if c.kernel == nil {
		return nil
	}
	return c.kernel.in(ctx)
}

// Kernels is Conv2D.Kernels for an FC layer; a slot layer has none
// either.
func (f *FC) Kernels(ctx *bfv.Context) []*bfv.PlaintextQ {
	if f.kernel == nil {
		return nil
	}
	return f.kernel.in(ctx)
}

// apply runs one input through the layer: one Q-only plaintext product
// per tile, over one forward transform of the input. n is the ring
// degree the layout was built for. The packing is component-wise, so
// the input is a full-modulus ciphertext or its c0 alone, the half a
// server computes when the client rebuilds c1 (bfv.Context.ProductC1).
func (k *kernel) apply(ev *bfv.Evaluator, ct *bfv.Ciphertext, n int) ([]*bfv.Ciphertext, OpCounts, error) {
	if len(ct.Value) < 1 || len(ct.Value) > 2 || ct.Drop != 0 {
		return nil, OpCounts{}, fmt.Errorf("core: a linear layer requires a full-modulus ciphertext of degree 1, or its c0 alone")
	}
	ctx := ev.Context()
	if ctx.Params.N() != n {
		return nil, OpCounts{}, fmt.Errorf("core: layer packed for N=%d, context has N=%d", n, ctx.Params.N())
	}
	outs := ev.MulPlainQTiles(ct, k.in(ctx))
	return outs, OpCounts{PlainMults: len(outs)}, nil
}

// centerMod reduces v mod m into (−m/2, m/2].
func centerMod(v, m int64) int64 {
	if v = (v%m + m) % m; v > m/2 {
		v -= m
	}
	return v
}

// productBase returns base(o), the coefficient of output channel o's
// first output and of its kernel's highest tap in o's tile.
func (c *Conv2D) productBase(o int) int {
	hw := c.Hp * c.Wp
	return o%c.tile*c.Spec.InC*hw + (c.Spec.InC-1)*hw + (c.Spec.KH-1)*c.Wp + c.Spec.KW - 1
}

// productKernels lays the weights out as one kernel polynomial per tile.
func (c *Conv2D) productKernels() [][]int64 {
	s := c.Spec
	hw := c.Hp * c.Wp
	ks := make([][]int64, c.Groups())
	for t := range ks {
		ks[t] = make([]int64, 2*c.rowSize)
	}
	for o := 0; o < s.OutC; o++ {
		k, base := ks[o/c.tile], c.productBase(o)
		for ch := 0; ch < s.InC; ch++ {
			for a := 0; a < s.KH; a++ {
				for b := 0; b < s.KW; b++ {
					k[base-(ch*hw+a*c.Wp+b)] = c.Weights[o][ch][a*s.KW+b]
				}
			}
		}
	}
	return ks
}

// ReadIndices returns, ascending, the coefficients of output group g that
// the client reads — output o's InH×InW map at base(o) + i·Wp + j for
// every channel o of the tile. Both ends derive it from the operator, so
// a reply carries c0 at these coefficients without naming them.
func (c *Conv2D) ReadIndices(g int) []int {
	var idx []int
	for o := g * c.tile; o < (g+1)*c.tile && o < c.Spec.OutC; o++ {
		base := c.productBase(o)
		for y := 0; y < c.Spec.InH; y++ {
			for x := 0; x < c.Spec.InW; x++ {
				idx = append(idx, base+y*c.Wp+x)
			}
		}
	}
	return idx
}

// fitsProduct reports whether every output fits one polynomial. A square
// layer never takes the product packing (NewFCSpecOnly).
func (f *FC) fitsProduct() bool { return f.Out*f.In <= 2*f.rowSize }

// productKernels lays the weights out as the one kernel polynomial.
func (f *FC) productKernels() [][]int64 {
	k := make([]int64, 2*f.rowSize)
	for r, row := range f.Weights {
		for i, w := range row {
			k[r*f.In+f.In-1-i] = w
		}
	}
	return [][]int64{k}
}

// ReadIndices returns the coefficients of the one output the client
// reads under the product packing, r·In + In − 1 for every row r, and nil
// under the slot packing, whose reply is sent whole (see
// Conv2D.ReadIndices).
func (f *FC) ReadIndices(g int) []int {
	if !f.product || g != 0 {
		return nil
	}
	idx := make([]int, f.Out)
	for r := range idx {
		idx[r] = r*f.In + f.In - 1
	}
	return idx
}
