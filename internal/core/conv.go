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

// MACs returns the multiply-accumulate count of the layer.
func (s ConvSpec) MACs() int64 {
	return int64(s.InH) * int64(s.InW) * int64(s.InC) * int64(s.OutC) * int64(s.KH) * int64(s.KW)
}

// Conv2D is an encrypted convolution operator. A layer one of whose
// output channels fits a polynomial takes the product packing
// (product.go): one plaintext product per tile of output channels, no
// rotation. Any other layer takes the slot packing, described here.
// Input channels are
// packed into power-of-two-strided blocks of one ciphertext row, the
// same in both batching rows, each block holding one zero-haloed window
// and nothing else: the halo is the rotational redundancy, since no
// kernel offset of an interior output reads past it, so a block costs
// nextPow2(Hp·Wp) slots. When InC divides the block count the channels
// repeat to fill every block, so each output block finds all of them
// within InC block shifts. Weights enter as
// block-diagonal plaintexts that give the two rows different output
// channels, so the whole layer uses exactly one multiplication per
// (output group, channel-block shift, kernel offset) alignment and every
// one of them fills both rows — the paper's "optimal multiplication
// efficiency". The alignment step(d, δ) = d·Stride + δ is
// additive, so the layer runs on the BSGS schedule (BSGSPlan): the
// kernel offsets are baby rotations of the input shared by every output
// group, and each group folds its shifted inner sums with one giant
// rotation per block shift — KH·KW − 1 + Groups·(shifts − 1) key
// switches where a rotation per alignment would pay shifts·KH·KW − 1.
type Conv2D struct {
	Spec   ConvSpec
	Layout rotred.Layout
	// Hp, Wp are the zero-padded spatial dimensions; ph, pw the halo.
	Hp, Wp, ph, pw int
	// Cb is the number of channel blocks per ciphertext row. An output
	// ciphertext (group) of the slot packing holds GroupSize() = 2·Cb
	// channels: channel b of a group sits in row b/Cb, block b mod Cb.
	// Layout and Cb are zero under the product packing.
	Cb      int
	rowSize int
	// product is set when the layer takes the product packing, and tile
	// is then how many output channels one kernel polynomial carries: an
	// output tile is one product and one output group.
	product bool
	tile    int
	// Weights[o][c][k] with k = ky*KW + kx, quantized.
	Weights [][][]int64
	// plains holds the operator's own prepared weight plaintexts, used
	// when ApplyBatch is handed no shared cache; kernel is the product
	// packing's weight polynomials instead, one per tile.
	plains *PlainCache
	kernel *kernel
}

// NewConv2D validates the spec against the ring geometry (rowSize =
// N/2 slots per batching row) and computes the block layout.
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
	if conv.product {
		conv.kernel = newKernel(conv.productKernels)
	} else {
		conv.plains = NewPlainCache(0)
	}
	return conv, nil
}

// NewConv2DSpecOnly builds the packing/geometry side of the operator
// without weights — what the client needs to pack inputs, extract
// outputs, and derive rotation-key requirements. Apply requires
// weights and rejects a spec-only operator. A layer that takes the
// product packing needs only Hp, Wp and N: it builds no slot layout.
func NewConv2DSpecOnly(spec ConvSpec, rowSize int) (*Conv2D, error) {
	c, err := newConvGeometry(spec, rowSize)
	if err != nil {
		return nil, err
	}
	if c.product = c.fitsProduct(); c.product {
		c.tile = min(spec.OutC, 2*rowSize/(spec.InC*c.Hp*c.Wp))
		return c, nil
	}
	if err := c.layoutSlots(); err != nil {
		return nil, err
	}
	return c, nil
}

// newConvGeometry validates spec and sets its padded window; the caller
// picks the packing.
func newConvGeometry(spec ConvSpec, rowSize int) (*Conv2D, error) {
	if spec.KH%2 == 0 || spec.KW%2 == 0 {
		return nil, fmt.Errorf("core: even kernel sizes unsupported (got %dx%d)", spec.KH, spec.KW)
	}
	if spec.InH < 1 || spec.InW < 1 || spec.InC < 1 || spec.OutC < 1 {
		return nil, fmt.Errorf("core: empty convolution %dx%dx%d -> %d", spec.InH, spec.InW, spec.InC, spec.OutC)
	}
	ph, pw := (spec.KH-1)/2, (spec.KW-1)/2
	return &Conv2D{
		Spec: spec,
		Hp:   spec.InH + 2*ph, Wp: spec.InW + 2*pw, ph: ph, pw: pw,
		rowSize: rowSize,
	}, nil
}

// SlotRotationSteps returns the rotation steps the slot packing of spec
// takes with its input channels clamped to one ciphertext row's channel
// blocks — a wider layer splits its channels across ciphertexts and
// reuses the same steps — whatever packing NewConv2DSpecOnly would pick.
// It prices the Galois keys of a layer no packing lays out
// (nn.EvaluationKeyFootprint).
func SlotRotationSteps(spec ConvSpec, rowSize int) ([]int, error) {
	c, err := newConvGeometry(spec, rowSize)
	if err != nil {
		return nil, err
	}
	c.Spec.InC = 1
	if err := c.layoutSlots(); err != nil {
		return nil, err
	}
	c.Spec.InC = min(spec.InC, c.Cb)
	if err := c.layoutSlots(); err != nil {
		return nil, err
	}
	return c.bsgs(0).RotationSteps(), nil
}

// layoutSlots sets the slot packing's channel blocks.
func (c *Conv2D) layoutSlots() error {
	layout, err := rotred.NewLayout(c.Hp*c.Wp, 0, c.Spec.InC, c.rowSize)
	if err != nil {
		return fmt.Errorf("core: conv layout: %w", err)
	}
	cb := c.rowSize / layout.Stride
	if cb < 1 {
		return fmt.Errorf("core: channel stride %d exceeds row size %d", layout.Stride, c.rowSize)
	}
	if c.Spec.InC > cb {
		return fmt.Errorf("core: %d input channels exceed %d blocks per ciphertext", c.Spec.InC, cb)
	}
	c.Layout, c.Cb = layout, cb
	return nil
}

// Product reports whether the layer takes the product packing: its
// packed input and decoded output are plaintext coefficients
// (bfv.Encoder.EncodeCoeffs, DecodeCoeffs), not batching slots.
func (c *Conv2D) Product() bool { return c.product }

// GroupSize returns the number of output channels one output ciphertext
// holds: output channel o is in group o / GroupSize().
func (c *Conv2D) GroupSize() int {
	if c.product {
		return c.tile
	}
	return 2 * c.Cb
}

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

// blockChannel returns the input channel block k of a row holds, or −1
// when it holds none: channel k mod InC when InC divides Cb (the
// channels repeat to fill the row), else channel k in the first InC
// blocks only.
func (c *Conv2D) blockChannel(k int) int {
	if c.Cb%c.Spec.InC == 0 {
		return k % c.Spec.InC
	}
	if k < c.Spec.InC {
		return k
	}
	return -1
}

// shifts returns the number of block shifts that bring every input
// channel to every output block: InC when the channels repeat, else Cb.
func (c *Conv2D) shifts() int {
	if c.Cb%c.Spec.InC == 0 {
		return c.Spec.InC
	}
	return c.Cb
}

// shiftLive reports whether block shift d can carry a weight of output
// group g: some channel b of the group exists and its block b + d holds
// an input channel.
func (c *Conv2D) shiftLive(g, d int) bool {
	for b := 0; b < c.GroupSize() && g*c.GroupSize()+b < c.Spec.OutC; b++ {
		if c.blockChannel((b+d)%c.Cb) >= 0 {
			return true
		}
	}
	return false
}

// bsgs lays the layer out for the executor: babies are the kernel
// offsets, giants the block shifts some group can reach.
func (c *Conv2D) bsgs(slots int) BSGSPlan[int64] {
	pl := BSGSPlan[int64]{Op: c, Outputs: c.Groups()}
	for _, delta := range c.kernelOffsets() {
		pl.Babies = append(pl.Babies, c.step(0, delta))
	}
	var shifts []int
	for d := 0; d < c.shifts(); d++ {
		for g := 0; g < pl.Outputs; g++ {
			if c.shiftLive(g, d) {
				shifts = append(shifts, d)
				pl.Giants = append(pl.Giants, c.step(d, 0))
				break
			}
		}
	}
	pl.Diag = func(g, gi, ki int) []int64 { return c.weightDiag(g, shifts[gi], ki, slots) }
	return pl
}

// RotationSteps lists every rotation amount Apply uses, each once: the
// kernel offsets and the reachable block shifts, none under the product
// packing. Generate Galois keys for exactly these.
func (c *Conv2D) RotationSteps() []int {
	if c.product {
		return nil
	}
	return c.bsgs(0).RotationSteps()
}

// Plan reports the physical key-switching work of one Apply on the same
// sheet as FC.Plan (level 3 is the only slot schedule; the product
// packing's plan is level 0, one plaintext product per tile).
func (c *Conv2D) Plan() RotationPlan {
	if c.product {
		return RotationPlan{PlainMults: c.Groups()}
	}
	giantSteps := 0
	for g := 0; g < c.Groups(); g++ {
		for d := 1; d < c.shifts(); d++ {
			if c.shiftLive(g, d) {
				giantSteps++
			}
		}
	}
	rp := c.bsgs(0).sheet(3, giantSteps)
	// Shift 0 is live in every group: its first channel reads block 0.
	rp.PlainMults = (giantSteps + c.Groups()) * c.Spec.KH * c.Spec.KW
	return rp
}

// PackInput lays the image (channel-major, InC×InH×InW, quantized
// signed values) out for encryption. Under the product packing it is the
// coefficient vector, channel c's window at c·Hp·Wp inside its zero
// halo. Under the slot packing it is a slot vector, each channel's window
// with its zero halo in every block that holds the channel
// (blockChannel), duplicated across both batching rows.
func (c *Conv2D) PackInput(image [][]int64, slots int) ([]int64, error) {
	out := make([]int64, slots)
	if err := c.PackInputInto(out, image); err != nil {
		return nil, err
	}
	return out, nil
}

// PackInputInto is PackInput into out, len(out) slots, which it clears
// first: a client packing layer after layer reuses one buffer.
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
	if c.product {
		for ch, img := range image {
			c.copyWindow(out, ch*c.Hp*c.Wp+c.ph*c.Wp+c.pw, img)
		}
		return nil
	}
	for k := 0; k < c.Cb; k++ {
		ch := c.blockChannel(k)
		if ch < 0 {
			continue
		}
		c.copyWindow(out, k*c.Layout.Stride+c.ph*c.Wp+c.pw, image[ch])
	}
	// Duplicate into the second batching row: a row rotation moves both
	// rows alike, and each row computes its own output channels.
	copy(out[c.rowSize:2*c.rowSize], out[:c.rowSize])
	return nil
}

// copyWindow writes an InH×InW window into out, its first pixel at
// origin and its rows Wp apart.
func (c *Conv2D) copyWindow(out []int64, origin int, img []int64) {
	for y := 0; y < c.Spec.InH; y++ {
		copy(out[origin+y*c.Wp:], img[y*c.Spec.InW:(y+1)*c.Spec.InW])
	}
}

// Apply evaluates the convolution over an encrypted packed input,
// returning one ciphertext per output group and the operation counts.
// It runs over the operator's own kernel or prepared weight plaintexts,
// so a repeated Apply on one operator is the warm path.
func (c *Conv2D) Apply(ev *bfv.Evaluator, ecd *bfv.Encoder, ct *bfv.Ciphertext, slots int) ([]*bfv.Ciphertext, OpCounts, error) {
	if c.Weights == nil {
		return nil, OpCounts{}, fmt.Errorf("core: Apply on a spec-only convolution (no weights)")
	}
	if c.product {
		return c.kernel.apply(ev, ct, 2*c.rowSize)
	}
	return applyBFV(ev, ecd, ct, c.plains, c.bsgs(slots))
}

// weightDiag builds the block-diagonal weight plaintext for output
// group g, block shift d, kernel index ki, already rotated by −d·Stride
// for the BSGS schedule: with k = (b+d) mod Cb, the weight
// w[g·2Cb+b][blockChannel(k)][ki] of the group's channel b sits in row
// b/Cb at the interior (valid output) positions of block k, and the
// giant rotation by d·Stride carries the product to block b mod Cb of
// that row. Returns nil when every block is zero.
func (c *Conv2D) weightDiag(g, d, ki, slots int) []int64 {
	diag := make([]int64, slots)
	any := false
	for b := 0; b < c.GroupSize(); b++ {
		o := g*c.GroupSize() + b
		if o >= c.Spec.OutC {
			continue
		}
		k := (b + d) % c.Cb
		ch := c.blockChannel(k)
		if ch < 0 {
			continue
		}
		w := c.Weights[o][ch][ki]
		if w == 0 {
			continue
		}
		any = true
		base := b/c.Cb*c.rowSize + k*c.Layout.Stride
		for y := 0; y < c.Spec.InH; y++ {
			rowBase := base + (y+c.ph)*c.Wp + c.pw
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

// ExtractOutput pulls output channel o's InH×InW activation map from the
// decoded vector of group o/GroupSize(): coefficients from base(o) of
// its tile under the product packing, slots of its block's interior
// under the slot packing.
func (c *Conv2D) ExtractOutput(decoded []int64, o int) []int64 {
	var origin int
	if c.product {
		origin = c.productBase(o)
	} else {
		b := o % c.GroupSize()
		origin = b/c.Cb*c.rowSize + b%c.Cb*c.Layout.Stride + c.ph*c.Wp + c.pw
	}
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
