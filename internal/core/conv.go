package core

import (
	"fmt"

	"choco/internal/bfv"
)

// ConvSpec describes a 2D convolution layer ("same" padding, unit
// stride; strided layers subsample on the client, which repacks between
// layers anyway in the client-aided model).
type ConvSpec struct {
	InH, InW, InC int
	KH, KW        int
	OutC          int
}

// MACs returns the multiply-accumulate count of the layer.
func (s ConvSpec) MACs() int64 {
	return int64(s.InH) * int64(s.InW) * int64(s.InC) * int64(s.OutC) * int64(s.KH) * int64(s.KW)
}

// Conv2D is an encrypted convolution operator on the product packing
// (product.go): the input's channels sit in plaintext coefficients, each
// zero-haloed, and the layer is one plaintext product per tile of output
// channels, with no rotation and no Galois key. A layer one of whose
// output channels does not fit a polynomial has no packing here
// (NewConv2DSpecOnly refuses it).
type Conv2D struct {
	Spec ConvSpec
	// Hp, Wp are the zero-padded spatial dimensions; ph, pw the halo.
	Hp, Wp, ph, pw int
	rowSize        int
	// tile is how many output channels one kernel polynomial carries: an
	// output tile is one product and one output group.
	tile int
	// Weights[o][c][k] with k = ky*KW + kx, quantized.
	Weights [][][]int64
	// kernel is the layer's weight polynomials, one per tile.
	kernel *kernel
}

// NewConv2D validates the spec against the ring geometry (rowSize =
// N/2) and lays the weights out as one kernel polynomial per tile.
func NewConv2D(spec ConvSpec, weights [][][]int64, rowSize int) (*Conv2D, error) {
	if len(weights) != spec.OutC {
		return nil, fmt.Errorf("core: weights have %d output channels, spec %d", len(weights), spec.OutC)
	}
	for o := range weights {
		if len(weights[o]) != spec.InC {
			return nil, fmt.Errorf("core: output %d has %d input channels, spec %d", o, len(weights[o]), spec.InC)
		}
		for c := range weights[o] {
			if len(weights[o][c]) != spec.KH*spec.KW {
				return nil, fmt.Errorf("core: kernel size mismatch at [%d][%d]", o, c)
			}
		}
	}
	conv, err := NewConv2DSpecOnly(spec, rowSize)
	if err != nil {
		return nil, err
	}
	conv.Weights = weights
	conv.kernel = newKernel(conv.productKernels)
	return conv, nil
}

// NewConv2DSpecOnly builds the packing/geometry side of the operator
// without weights — what the client needs to pack inputs and extract
// outputs. Apply requires weights and rejects a spec-only operator. A
// layer one of whose output channels takes more than N coefficients,
// C·Hp·Wp > N, is refused.
func NewConv2DSpecOnly(spec ConvSpec, rowSize int) (*Conv2D, error) {
	if spec.KH%2 == 0 || spec.KW%2 == 0 {
		return nil, fmt.Errorf("core: even kernel sizes unsupported (got %dx%d)", spec.KH, spec.KW)
	}
	if spec.InH < 1 || spec.InW < 1 || spec.InC < 1 || spec.OutC < 1 {
		return nil, fmt.Errorf("core: empty convolution %dx%dx%d -> %d", spec.InH, spec.InW, spec.InC, spec.OutC)
	}
	ph, pw := (spec.KH-1)/2, (spec.KW-1)/2
	c := &Conv2D{
		Spec: spec,
		Hp:   spec.InH + 2*ph, Wp: spec.InW + 2*pw, ph: ph, pw: pw,
		rowSize: rowSize,
	}
	per := spec.InC * c.Hp * c.Wp
	if per > 2*rowSize {
		return nil, fmt.Errorf("core: one output channel takes C·Hp·Wp = %d·%d·%d = %d coefficients, more than N = %d", spec.InC, c.Hp, c.Wp, per, 2*rowSize)
	}
	c.tile = min(spec.OutC, 2*rowSize/per)
	return c, nil
}

// GroupSize returns the number of output channels one output ciphertext
// (tile) holds: output channel o is in group o / GroupSize().
func (c *Conv2D) GroupSize() int { return c.tile }

// Groups returns the number of output ciphertexts.
func (c *Conv2D) Groups() int { return (c.Spec.OutC + c.GroupSize() - 1) / c.GroupSize() }

// Plan reports the work of one Apply on the same sheet as FC.Plan: level
// 0, one plaintext product per tile.
func (c *Conv2D) Plan() RotationPlan { return RotationPlan{PlainMults: c.Groups()} }

// PackInput lays the image (channel-major, InC×InH×InW, quantized
// signed values) out for encryption as plaintext coefficients
// (bfv.Encoder.EncodeCoeffs): channel c's window at c·Hp·Wp inside its
// zero halo.
func (c *Conv2D) PackInput(image [][]int64, slots int) ([]int64, error) {
	out := make([]int64, slots)
	if err := c.PackInputInto(out, image); err != nil {
		return nil, err
	}
	return out, nil
}

// PackInputInto is PackInput into out, len(out) coefficients, which it
// clears first: a client packing layer after layer reuses one buffer.
func (c *Conv2D) PackInputInto(out []int64, image [][]int64) error {
	if len(image) != c.Spec.InC {
		return fmt.Errorf("core: image has %d channels, spec %d", len(image), c.Spec.InC)
	}
	if len(out) < 2*c.rowSize {
		return fmt.Errorf("core: need %d slots, have %d", 2*c.rowSize, len(out))
	}
	for ch, img := range image {
		if len(img) != c.Spec.InH*c.Spec.InW {
			return fmt.Errorf("core: channel %d has %d pixels", ch, len(img))
		}
	}
	clear(out)
	for ch, img := range image {
		origin := ch*c.Hp*c.Wp + c.ph*c.Wp + c.pw
		for y := 0; y < c.Spec.InH; y++ {
			copy(out[origin+y*c.Wp:], img[y*c.Spec.InW:(y+1)*c.Spec.InW])
		}
	}
	return nil
}

// Apply evaluates the convolution over an encrypted packed input,
// returning one ciphertext per output tile and the operation counts: one
// Q-only plaintext product per tile by the operator's kernel, over one
// forward transform of the input.
func (c *Conv2D) Apply(ev *bfv.Evaluator, ecd *bfv.Encoder, ct *bfv.Ciphertext, slots int) ([]*bfv.Ciphertext, OpCounts, error) {
	if c.Weights == nil {
		return nil, OpCounts{}, fmt.Errorf("core: Apply on a spec-only convolution (no weights)")
	}
	return c.kernel.apply(ev, ct, 2*c.rowSize)
}

// ApplyBatch is Apply over several sessions' packed inputs, one after
// another, returning per-item output groups and op counts in item order.
// The cache is ignored: a convolution reads its kernel, never a
// PlainCache. It stays for the benchmark replay, which prices two items
// in one call; ROADMAP.md item 1 deletes it.
func (c *Conv2D) ApplyBatch(ecd *bfv.Encoder, items []BatchInput, slots int, cache *PlainCache) ([][]*bfv.Ciphertext, []OpCounts, error) {
	outs := make([][]*bfv.Ciphertext, len(items))
	ops := make([]OpCounts, len(items))
	for i, it := range items {
		var err error
		if outs[i], ops[i], err = c.Apply(it.Ev, ecd, it.Ct, slots); err != nil {
			return nil, nil, err
		}
	}
	return outs, ops, nil
}

// ExtractOutput pulls output channel o's InH×InW activation map from the
// decoded coefficients of group o/GroupSize(), from base(o) of its tile.
func (c *Conv2D) ExtractOutput(decoded []int64, o int) []int64 {
	origin := c.productBase(o)
	out := make([]int64, c.Spec.InH*c.Spec.InW)
	for y := 0; y < c.Spec.InH; y++ {
		copy(out[y*c.Spec.InW:(y+1)*c.Spec.InW], decoded[origin+y*c.Wp:])
	}
	return out
}

// PlainConv2D is the cleartext reference implementation ("same"
// padding, unit stride) used to validate the encrypted operator.
func PlainConv2D(spec ConvSpec, weights [][][]int64, image [][]int64) [][]int64 {
	ph, pw := (spec.KH-1)/2, (spec.KW-1)/2
	out := make([][]int64, spec.OutC)
	for o := 0; o < spec.OutC; o++ {
		out[o] = make([]int64, spec.InH*spec.InW)
		for y := 0; y < spec.InH; y++ {
			for x := 0; x < spec.InW; x++ {
				var acc int64
				for c := 0; c < spec.InC; c++ {
					for ky := 0; ky < spec.KH; ky++ {
						for kx := 0; kx < spec.KW; kx++ {
							iy, ix := y+ky-ph, x+kx-pw
							if iy < 0 || iy >= spec.InH || ix < 0 || ix >= spec.InW {
								continue
							}
							acc += weights[o][c][ky*spec.KW+kx] * image[c][iy*spec.InW+ix]
						}
					}
				}
				out[o][y*spec.InW+x] = acc
			}
		}
	}
	return out
}
