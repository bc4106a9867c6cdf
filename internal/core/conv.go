package core

import (
	"fmt"

	"choco/internal/bfv"
	"choco/internal/rotred"
)

// ConvSpec describes a 2D convolution layer ("same" padding, unit
// stride; strided layers subsample on the client, which repacks between
// layers anyway in the client-aided model).
type ConvSpec struct {
	InH, InW, InC int
	KH, KW        int
	OutC          int
}

// OutSize returns the spatial output size (same padding).
func (s ConvSpec) OutSize() (int, int) { return s.InH, s.InW }

// MACs returns the multiply-accumulate count of the layer.
func (s ConvSpec) MACs() int64 {
	return int64(s.InH) * int64(s.InW) * int64(s.InC) * int64(s.OutC) * int64(s.KH) * int64(s.KW)
}

// Conv2D is an encrypted convolution operator. Input channels are
// packed with rotational redundancy into power-of-two-strided blocks of
// one ciphertext row, the same in both batching rows; weights enter as
// block-diagonal plaintexts that give the two rows different output
// channels, so the whole layer uses exactly one multiplication per
// (output group, channel-block shift, kernel offset) alignment and every
// one of them fills both rows — the paper's "optimal multiplication
// efficiency". The alignment step(d, δ) = d·Stride + δ is
// additive, so the layer runs on the BSGS schedule (applyBSGS): the
// kernel offsets are baby rotations of the input shared by every output
// group, and each group folds its shifted inner sums with one giant
// rotation per block shift — KH·KW − 1 + Groups·(Cb − 1) key switches
// where a rotation per alignment would pay Cb·KH·KW − 1.
type Conv2D struct {
	Spec   ConvSpec
	Layout rotred.Layout
	// Hp, Wp are the zero-padded spatial dimensions; ph, pw the halo.
	Hp, Wp, ph, pw int
	// Cb is the number of channel blocks per ciphertext row. An output
	// ciphertext (group) holds GroupSize() = 2·Cb channels: channel b of a
	// group sits in row b/Cb, block b mod Cb.
	Cb      int
	rowSize int
	// Weights[o][c][k] with k = ky*KW + kx, quantized.
	Weights [][][]int64
	// plains holds the operator's own prepared weight plaintexts, used
	// when ApplyBatch is handed no shared cache.
	plains *PlainCache
}

// NewConv2D validates the spec against the ring geometry (rowSize =
// N/2 slots per batching row) and computes the redundant layout.
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
	conv.plains = NewPlainCache(0)
	return conv, nil
}

// NewConv2DSpecOnly builds the packing/geometry side of the operator
// without weights — what the client needs to pack inputs, extract
// outputs, and derive rotation-key requirements. Apply requires
// weights and rejects a spec-only operator.
func NewConv2DSpecOnly(spec ConvSpec, rowSize int) (*Conv2D, error) {
	if spec.KH%2 == 0 || spec.KW%2 == 0 {
		return nil, fmt.Errorf("core: even kernel sizes unsupported (got %dx%d)", spec.KH, spec.KW)
	}
	ph, pw := (spec.KH-1)/2, (spec.KW-1)/2
	hp, wp := spec.InH+2*ph, spec.InW+2*pw
	window := hp * wp
	pad := ph*wp + pw
	layout, err := rotred.NewLayout(window, pad, spec.InC, rowSize)
	if err != nil {
		return nil, fmt.Errorf("core: conv layout: %w", err)
	}
	cb := rowSize / layout.Stride
	if cb < 1 {
		return nil, fmt.Errorf("core: channel stride %d exceeds row size %d", layout.Stride, rowSize)
	}
	if spec.InC > cb {
		return nil, fmt.Errorf("core: %d input channels exceed %d blocks per ciphertext", spec.InC, cb)
	}
	return &Conv2D{
		Spec: spec, Layout: layout,
		Hp: hp, Wp: wp, ph: ph, pw: pw,
		Cb: cb, rowSize: rowSize,
	}, nil
}

// GroupSize returns the number of output channels one output ciphertext
// holds: output channel o is in group o / GroupSize().
func (c *Conv2D) GroupSize() int { return 2 * c.Cb }

// Groups returns the number of output ciphertexts.
func (c *Conv2D) Groups() int { return (c.Spec.OutC + c.GroupSize() - 1) / c.GroupSize() }

// kernelOffsets returns the slot deltas for each kernel position.
func (c *Conv2D) kernelOffsets() []int {
	var out []int
	for ky := 0; ky < c.Spec.KH; ky++ {
		for kx := 0; kx < c.Spec.KW; kx++ {
			dy, dx := ky-c.ph, kx-c.pw
			out = append(out, dy*c.Wp+dx)
		}
	}
	return out
}

// step returns the row rotation that aligns block shift d with kernel
// offset delta, reduced into [0, rowSize).
func (c *Conv2D) step(d, delta int) int {
	s := d*c.Layout.Stride + delta
	return ((s % c.rowSize) + c.rowSize) % c.rowSize
}

// shiftLive reports whether block shift d can carry a weight of output
// group g: some channel b of the group exists and reads an input channel
// (b+d) mod Cb that exists.
func (c *Conv2D) shiftLive(g, d int) bool {
	for b := 0; b < c.GroupSize() && g*c.GroupSize()+b < c.Spec.OutC; b++ {
		if (b+d)%c.Cb < c.Spec.InC {
			return true
		}
	}
	return false
}

// bsgs lays the layer out for applyBSGS: babies are the kernel offsets,
// giants the block shifts some group can reach.
func (c *Conv2D) bsgs(slots int) bsgsPlan {
	pl := bsgsPlan{op: c, outputs: c.Groups()}
	for _, delta := range c.kernelOffsets() {
		pl.babies = append(pl.babies, c.step(0, delta))
	}
	var shifts []int
	for d := 0; d < c.Cb; d++ {
		for g := 0; g < pl.outputs; g++ {
			if c.shiftLive(g, d) {
				shifts = append(shifts, d)
				pl.giants = append(pl.giants, c.step(d, 0))
				break
			}
		}
	}
	pl.diag = func(g, gi, ki int) []int64 { return c.weightDiag(g, shifts[gi], ki, slots) }
	return pl
}

// RotationSteps lists every rotation amount Apply uses, each once: the
// kernel offsets and the reachable block shifts. Generate Galois keys
// for exactly these.
func (c *Conv2D) RotationSteps() []int { return c.bsgs(0).rotationSteps() }

// Plan reports the physical key-switching work of one Apply on the same
// sheet as FC.Plan (level 3 is the only conv schedule).
func (c *Conv2D) Plan() RotationPlan {
	giantSteps := 0
	for g := 0; g < c.Groups(); g++ {
		for d := 1; d < c.Cb; d++ {
			if c.shiftLive(g, d) {
				giantSteps++
			}
		}
	}
	rp := c.bsgs(0).sheet(3, giantSteps)
	// Shift 0 is live in every group: its first channel reads channel 0.
	rp.PlainMults = (giantSteps + c.Groups()) * c.Spec.KH * c.Spec.KW
	return rp
}

// PackInput lays the image (channel-major, InC×InH×InW, quantized
// signed values) into a slot vector with zero halo and rotational
// redundancy, duplicated across both batching rows.
func (c *Conv2D) PackInput(image [][]int64, slots int) ([]int64, error) {
	if len(image) != c.Spec.InC {
		return nil, fmt.Errorf("core: image has %d channels, spec %d", len(image), c.Spec.InC)
	}
	if slots < 2*c.rowSize {
		return nil, fmt.Errorf("core: need %d slots, have %d", 2*c.rowSize, slots)
	}
	out := make([]int64, slots)
	l := c.Layout
	for ch, img := range image {
		if len(img) != c.Spec.InH*c.Spec.InW {
			return nil, fmt.Errorf("core: channel %d has %d pixels", ch, len(img))
		}
		padded := make([]int64, l.Window)
		for y := 0; y < c.Spec.InH; y++ {
			for x := 0; x < c.Spec.InW; x++ {
				padded[(y+c.ph)*c.Wp+(x+c.pw)] = img[y*c.Spec.InW+x]
			}
		}
		base := ch * l.Stride
		for i := 0; i < l.Pad; i++ {
			out[base+i] = padded[l.Window-l.Pad+i]
		}
		copy(out[base+l.Pad:base+l.Pad+l.Window], padded)
		for i := 0; i < l.Pad; i++ {
			out[base+l.Pad+l.Window+i] = padded[i]
		}
	}
	// Duplicate into the second batching row: a row rotation moves both
	// rows alike, and each row computes its own output channels.
	copy(out[c.rowSize:2*c.rowSize], out[:c.rowSize])
	return out, nil
}

// Apply evaluates the convolution over an encrypted packed input,
// returning one ciphertext per output group and the operation counts.
// It is ApplyBatch over one item with the operator's own prepared
// weight plaintexts, so a repeated Apply on one operator is the warm
// path.
func (c *Conv2D) Apply(ev *bfv.Evaluator, ecd *bfv.Encoder, ct *bfv.Ciphertext, slots int) ([]*bfv.Ciphertext, OpCounts, error) {
	outs, ops, err := c.ApplyBatch(ecd, []BatchInput{{Ev: ev, Ct: ct}}, slots, nil)
	if err != nil {
		return nil, OpCounts{}, err
	}
	return outs[0], ops[0], nil
}

// weightDiag builds the block-diagonal weight plaintext for output
// group g, block shift d, kernel index ki, already rotated by −d·Stride
// for the BSGS schedule: the weight w[g·2Cb+b][(b+d) mod Cb][ki] of the
// group's channel b sits in row b/Cb at the interior (valid output)
// positions of the input channel's block (b+d) mod Cb, and the giant
// rotation by d·Stride carries the product to block b mod Cb of that
// row. Returns nil when every block is zero.
func (c *Conv2D) weightDiag(g, d, ki, slots int) []int64 {
	l := c.Layout
	diag := make([]int64, slots)
	any := false
	for b := 0; b < c.GroupSize(); b++ {
		o := g*c.GroupSize() + b
		if o >= c.Spec.OutC {
			continue
		}
		ch := (b + d) % c.Cb
		if ch >= c.Spec.InC {
			continue
		}
		w := c.Weights[o][ch][ki]
		if w == 0 {
			continue
		}
		any = true
		base := b/c.Cb*c.rowSize + ch*l.Stride
		for y := 0; y < c.Spec.InH; y++ {
			rowBase := base + l.Pad + (y+c.ph)*c.Wp + c.pw
			for x := 0; x < c.Spec.InW; x++ {
				diag[rowBase+x] = w
			}
		}
	}
	if !any {
		return nil
	}
	return diag
}

// ExtractOutput pulls output channel o's InH×InW activation map from a
// decoded slot vector of group o/GroupSize().
func (c *Conv2D) ExtractOutput(decoded []int64, o int) []int64 {
	b := o % c.GroupSize()
	l := c.Layout
	base := b/c.Cb*c.rowSize + b%c.Cb*l.Stride + l.Pad
	out := make([]int64, c.Spec.InH*c.Spec.InW)
	for y := 0; y < c.Spec.InH; y++ {
		for x := 0; x < c.Spec.InW; x++ {
			out[y*c.Spec.InW+x] = decoded[base+(y+c.ph)*c.Wp+(x+c.pw)]
		}
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
