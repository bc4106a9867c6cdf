package nn

import (
	"fmt"

	"choco/internal/bfv"
	"choco/internal/params"
	"choco/internal/rotred"
)

// Layer-wise parameter planning: the paper's §7 names "partitioning
// encrypted workloads between client and server and managing
// communication of encrypted data" as the key open systems problem.
// Since the client repacks between layers anyway, nothing forces every
// layer onto the same HE parameters — each linear phase can use the
// smallest parameter set *it* needs. PlanLayers runs CHOCO's selector
// per layer and reports the communication the mixed plan saves over
// the network-wide preset.

// LayerPlan is the chosen parameter set for one linear layer.
type LayerPlan struct {
	Index     int
	Kind      LayerKind
	Params    bfv.Parameters
	UpCts     int
	DownCts   int
	CommBytes int64
}

// NetworkPlan is the per-layer assignment plus totals.
type NetworkPlan struct {
	Layers []LayerPlan
	// MixedBytes is the plan's total communication; UniformBytes the
	// communication under the network's single preset.
	MixedBytes   int64
	UniformBytes int64
}

// PlanLayers selects minimal parameters per linear layer. actBits is
// the activation quantization width; weightBits the weight width.
func PlanLayers(n *Network, actBits, weightBits int) (*NetworkPlan, error) {
	uniform, err := n.CommBytes()
	if err != nil {
		return nil, err
	}
	plan := &NetworkPlan{UniformBytes: uniform}
	h, w := n.InH, n.InW
	for i, l := range n.Layers {
		switch l.Kind {
		case Conv:
			_, _, c := n.shapeAt(i)
			// Accumulation fan-in: kernel taps × input channels.
			logAccum := ceilLog2(l.KH * l.KW * c)
			prof := params.Profile{
				TBits:      actBits + weightBits + logAccum + 1,
				MinSlots:   minSlotsConv(h, w, l.KH, l.KW, c),
				PlainMults: 1,
				Rotations:  l.KH * l.KW,
				LogAccum:   logAccum,
			}
			sel, err := params.SelectBFV(prof, 2)
			if err != nil {
				return nil, fmt.Errorf("nn: layer %d: %w", i, err)
			}
			up, down, err := convComm(h, w, c, l, sel)
			if err != nil {
				return nil, fmt.Errorf("nn: layer %d: %w", i, err)
			}
			lp := LayerPlan{Index: i, Kind: Conv, Params: sel, UpCts: up, DownCts: down,
				CommBytes: int64(up)*int64(seededBytes(sel)) + int64(down)*int64(sel.CiphertextBytes())}
			plan.Layers = append(plan.Layers, lp)
			plan.MixedBytes += lp.CommBytes
		case FC:
			hh, ww, cc := n.shapeAt(i)
			in := hh * ww * cc
			logAccum := ceilLog2(in)
			p := 1
			for p < in || p < l.FCOut {
				p <<= 1
			}
			prof := params.Profile{
				TBits:      actBits + weightBits + logAccum + 1,
				MinSlots:   2 * p, // replicated packing needs P ≤ N/2
				PlainMults: 1,
				Rotations:  2 * ceilLog2(p), // BSGS baby+giant steps
				LogAccum:   logAccum,
			}
			sel, err := params.SelectBFV(prof, 2)
			if err != nil {
				return nil, fmt.Errorf("nn: layer %d: %w", i, err)
			}
			up := (p + sel.N()/2 - 1) / (sel.N() / 2)
			down := 1
			lp := LayerPlan{Index: i, Kind: FC, Params: sel, UpCts: up, DownCts: down,
				CommBytes: int64(up)*int64(seededBytes(sel)) + int64(down)*int64(sel.CiphertextBytes())}
			plan.Layers = append(plan.Layers, lp)
			plan.MixedBytes += lp.CommBytes
			h, w = 1, l.FCOut
		case Pool:
			h, w = h/2, w/2
		}
	}
	return plan, nil
}

// minSlotsConv returns the slot demand of the redundant conv packing.
func minSlotsConv(h, w, kh, kw, c int) int {
	ph, pw := (kh-1)/2, (kw-1)/2
	window := (h + 2*ph) * (w + 2*pw)
	pad := ph*(w+2*pw) + pw
	stride := 1
	for stride < window+2*pad {
		stride <<= 1
	}
	return 2 * stride // at least one channel per row
}

// convComm computes the layer's ciphertext counts under a candidate
// parameter set.
func convComm(h, w, c int, l Layer, sel bfv.Parameters) (up, down int, err error) {
	rowSlots := sel.N() / 2
	ph, pw := (l.KH-1)/2, (l.KW-1)/2
	window := (h + 2*ph) * (w + 2*pw)
	layout, err := rotred.NewLayout(window, ph*(w+2*pw)+pw, 1, rowSlots)
	if err != nil {
		return 0, 0, err
	}
	chansPerRow := rowSlots / layout.Stride
	if chansPerRow == 0 {
		return 0, 0, fmt.Errorf("channel stride overflows row")
	}
	up = (c + chansPerRow - 1) / chansPerRow
	down = (l.OutC*h*w + sel.N() - 1) / sel.N()
	return up, down, nil
}

// seededBytes is the model's seeded-upload size under a parameter set:
// half a ciphertext of 8-byte words, and the seed.
func seededBytes(p bfv.Parameters) int {
	return p.CiphertextBytes()/2 + 32
}

func ceilLog2(v int) int {
	n := 0
	for 1<<uint(n) < v {
		n++
	}
	return n
}
