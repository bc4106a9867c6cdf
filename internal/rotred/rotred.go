// Package rotred implements rotational redundancy (§3.3 of the paper),
// CHOCO's encrypted-permutation optimization: input windows are packed
// with their wrap-around elements appended on either side so that a
// windowed rotation — the permutation at the heart of packed encrypted
// convolution and matrix-vector products — becomes a single cheap HE
// rotation instead of a sequence of rotations and masking multiplies
// (Fig 4). The package also implements the masking-multiply baseline
// (Gazelle-style arbitrary permutation) that the paper compares
// against in Table 4.
package rotred

import (
	"fmt"

	"choco/internal/bfv"
)

// Layout describes a redundant packing of equal-size windows
// ("channels") into a slot vector. Each channel occupies a
// power-of-two-aligned stride and is stored as
//
//	[last Pad elements | window (Window elements) | first Pad elements]
//
// so that rotating the whole ciphertext by any r with |r| ≤ Pad leaves
// every channel's window-of-interest holding its windowed rotation
// by r.
type Layout struct {
	// Window is the number of useful elements per channel.
	Window int
	// Pad is the redundancy on each side: the maximum supported
	// windowed-rotation magnitude.
	Pad int
	// Stride is the slot distance between consecutive channels; a
	// power of two at least Window + 2·Pad (the paper stacks channels
	// into evenly-spaced power-of-two slots).
	Stride int
	// Channels is the number of windows packed.
	Channels int
}

// NewLayout computes the minimal power-of-two-strided layout for the
// given window count and size with redundancy pad, subject to the slot
// capacity of the ring.
func NewLayout(window, pad, channels, slots int) (Layout, error) {
	if window <= 0 || channels <= 0 || pad < 0 {
		return Layout{}, fmt.Errorf("rotred: invalid layout request (window=%d pad=%d channels=%d)", window, pad, channels)
	}
	if pad > window {
		// More redundancy than data is never needed: a windowed
		// rotation by more than Window wraps fully around.
		pad = window
	}
	stride := nextPow2(window + 2*pad)
	l := Layout{Window: window, Pad: pad, Stride: stride, Channels: channels}
	if l.SlotsNeeded() > slots {
		return Layout{}, fmt.Errorf("rotred: layout needs %d slots but only %d available", l.SlotsNeeded(), slots)
	}
	return l, nil
}

// SlotsNeeded returns the slot footprint of the layout.
func (l Layout) SlotsNeeded() int { return l.Stride * l.Channels }

// Utilization returns the fraction of occupied slots holding
// non-redundant data — the space cost rotational redundancy trades for
// noise (§3.3: "the optimization reduces the density of useful input
// values in a ciphertext").
func (l Layout) Utilization() float64 {
	return float64(l.Window) / float64(l.Stride)
}

// Pack lays out the channels (each of length Window) into a slot
// vector of the given size.
func (l Layout) Pack(channels [][]uint64, slots int) ([]uint64, error) {
	if len(channels) != l.Channels {
		return nil, fmt.Errorf("rotred: got %d channels, layout has %d", len(channels), l.Channels)
	}
	if l.SlotsNeeded() > slots {
		return nil, fmt.Errorf("rotred: %d slots needed, %d available", l.SlotsNeeded(), slots)
	}
	out := make([]uint64, slots)
	for c, ch := range channels {
		if len(ch) != l.Window {
			return nil, fmt.Errorf("rotred: channel %d has %d elements, want %d", c, len(ch), l.Window)
		}
		base := c * l.Stride
		// Left redundancy: the last Pad elements.
		for i := 0; i < l.Pad; i++ {
			out[base+i] = ch[l.Window-l.Pad+i]
		}
		// Window of interest.
		copy(out[base+l.Pad:], ch)
		// Right redundancy: the first Pad elements.
		for i := 0; i < l.Pad; i++ {
			out[base+l.Pad+l.Window+i] = ch[i]
		}
	}
	return out, nil
}

// Window extracts channel c's window of interest from a decoded slot
// vector. After a ciphertext rotation by r (|r| ≤ Pad), this window
// holds the windowed rotation of the original channel — the client
// simply discards the redundant slots when unpacking (§3.3).
func (l Layout) WindowOf(slotVec []uint64, c int) []uint64 {
	base := c*l.Stride + l.Pad
	out := make([]uint64, l.Window)
	copy(out, slotVec[base:base+l.Window])
	return out
}

// WindowedRotate performs the windowed rotation of every channel by
// steps using a single HE rotation — the rotational-redundancy fast
// path (Fig 4B). |steps| must not exceed the layout's Pad.
func (l Layout) WindowedRotate(ev *bfv.Evaluator, ct *bfv.Ciphertext, steps int) (*bfv.Ciphertext, error) {
	if steps > l.Pad || -steps > l.Pad {
		return nil, fmt.Errorf("rotred: rotation %d exceeds redundancy %d", steps, l.Pad)
	}
	return ev.RotateRows(ct, steps)
}

// MaskedWindowedRotate performs the same windowed rotation using the
// arbitrary-permutation baseline (Fig 4A): two full rotations, two
// masking multiplies, and an addition. It needs no redundancy but
// consumes dramatically more noise budget (Table 4). The layout's Pad
// may be zero for this path. The two rotations act on the same input,
// so they share one hoisted decomposition.
func (l Layout) MaskedWindowedRotate(ev *bfv.Evaluator, ecd *bfv.Encoder, ct *bfv.Ciphertext, steps int, slots int) (*bfv.Ciphertext, error) {
	w := l.Window
	steps = ((steps % w) + w) % w
	if steps == 0 {
		return ct, nil
	}
	// Part A rotates the in-window elements into place; part B brings
	// the wrap-around elements. Both rotate the input ciphertext.
	rots, err := ev.RotateRowsHoisted(ct, []int{steps, steps - w})
	if err != nil {
		return nil, err
	}
	rotA, rotB := rots[0], rots[1]
	maskA := make([]uint64, slots)
	maskB := make([]uint64, slots)
	for c := 0; c < l.Channels; c++ {
		base := c*l.Stride + l.Pad
		for i := 0; i < w-steps; i++ {
			maskA[base+i] = 1
		}
		for i := w - steps; i < w; i++ {
			maskB[base+i] = 1
		}
	}
	ptA, err := ecd.EncodeUints(maskA)
	if err != nil {
		return nil, err
	}
	partA := ev.MulPlain(rotA, ev.PrepareMul(ptA))

	ptB, err := ecd.EncodeUints(maskB)
	if err != nil {
		return nil, err
	}
	partB := ev.MulPlain(rotB, ev.PrepareMul(ptB))
	return ev.Add(partA, partB), nil
}

// RequiredRotationKeys returns the rotation step values an evaluator
// needs for windowed rotations up to ±maxSteps under this layout's
// fast path, plus the baseline's wrap rotations.
func (l Layout) RequiredRotationKeys(maxSteps int) []int {
	var steps []int
	for s := 1; s <= maxSteps; s++ {
		steps = append(steps, s, -s, s-l.Window)
	}
	return steps
}

func nextPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}
