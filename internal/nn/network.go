// Package nn provides the DNN substrate of the paper's evaluation: the
// four Table 5 image classifiers (exact layer shapes, MAC counts, and
// model sizes), post-training quantization, a plaintext integer
// reference inference, a real client-aided encrypted inference driver
// over the core operators, and the analytic communication/client-cost
// model behind Table 5 and Figures 2, 10, 12, 14, and 15.
package nn

import (
	"fmt"

	"choco/internal/bfv"
	"choco/internal/rotred"
)

// LayerKind enumerates layer types. Linear layers (Conv, FC) run
// encrypted on the server; Act and Pool run on the client in plaintext.
type LayerKind int

// Layer kinds.
const (
	Conv LayerKind = iota
	FC
	Act  // ReLU + requantization
	Pool // 2×2 average pooling (sum; the scale folds into requant)
)

func (k LayerKind) String() string {
	switch k {
	case Conv:
		return "conv"
	case FC:
		return "fc"
	case Act:
		return "act"
	case Pool:
		return "pool"
	}
	return "?"
}

// Layer is one network layer. Conv layers carry kernel/channel shape;
// FC layers carry dimensions; Pool halves spatial dims.
type Layer struct {
	Kind LayerKind
	// Conv fields.
	KH, KW, OutC int
	// FC fields.
	FCOut int
	// RequantShift is the right-shift applied by the client's Act
	// layer to bring accumulations back into the activation range.
	RequantShift uint
}

// Network is an inference model description.
type Network struct {
	Name          string
	InH, InW, InC int
	Layers        []Layer

	// Paper-reported metadata for Table 5 (accuracy cannot be
	// reproduced without training on the real datasets).
	PaperMACsM     float64 // millions
	PaperAccFloat  float64
	PaperAcc8b     float64
	PaperAcc4b     float64
	PaperCommMB    float64
	PaperModelMB4b float64

	// Params is the BFV preset the network evaluates under.
	Params bfv.Parameters
}

// shapeAt returns the activation shape entering layer index i.
func (n *Network) shapeAt(i int) (h, w, c int) {
	h, w, c = n.InH, n.InW, n.InC
	for j := 0; j < i; j++ {
		switch l := n.Layers[j]; l.Kind {
		case Conv:
			c = l.OutC
		case FC:
			h, w, c = 1, 1, l.FCOut
		case Pool:
			h, w = h/2, w/2
		}
	}
	return
}

// MACs returns the total multiply-accumulate count of the linear
// layers.
func (n *Network) MACs() int64 {
	var total int64
	for i, l := range n.Layers {
		h, w, c := n.shapeAt(i)
		switch l.Kind {
		case Conv:
			total += int64(h) * int64(w) * int64(c) * int64(l.OutC) * int64(l.KH) * int64(l.KW)
		case FC:
			total += int64(h) * int64(w) * int64(c) * int64(l.FCOut)
		}
	}
	return total
}

// ParamCount returns the weight count (biases omitted; they are
// client-side constants in the client-aided model).
func (n *Network) ParamCount() int64 {
	var total int64
	for i, l := range n.Layers {
		_, _, c := n.shapeAt(i)
		switch l.Kind {
		case Conv:
			total += int64(c) * int64(l.OutC) * int64(l.KH) * int64(l.KW)
		case FC:
			h, w, cc := n.shapeAt(i)
			total += int64(h) * int64(w) * int64(cc) * int64(l.FCOut)
		}
	}
	return total
}

// ModelSizeBytes returns the model size at the given weight bit width.
func (n *Network) ModelSizeBytes(bits int) int64 {
	return n.ParamCount() * int64(bits) / 8
}

// LayerComm describes one linear layer's ciphertext traffic in the
// client-aided protocol: the client uploads the redundantly packed
// inputs and downloads the (server-condensed) outputs.
type LayerComm struct {
	Index   int
	Kind    LayerKind
	UpCts   int
	DownCts int
	MACs    int64
}

// CommPlan computes per-linear-layer ciphertext counts under the
// network's parameter preset. Inputs are packed with rotational
// redundancy (stride from the rotred layout); outputs are condensed
// densely by the server before download (the client-optimized choice
// of §5.4).
func (n *Network) CommPlan() ([]LayerComm, error) {
	slots := n.Params.N()
	rowSlots := slots / 2
	var plan []LayerComm
	for i, l := range n.Layers {
		h, w, c := n.shapeAt(i)
		switch l.Kind {
		case Conv:
			ph, pw := (l.KH-1)/2, (l.KW-1)/2
			window := (h + 2*ph) * (w + 2*pw)
			layout, err := rotred.NewLayout(window, ph*(w+2*pw)+pw, 1, rowSlots)
			if err != nil {
				return nil, fmt.Errorf("nn: layer %d does not fit the ring: %w", i, err)
			}
			chansPerRow := rowSlots / layout.Stride
			if chansPerRow == 0 {
				return nil, fmt.Errorf("nn: layer %d channel stride overflows the row", i)
			}
			up := (c + chansPerRow - 1) / chansPerRow
			down := (l.OutC*h*w + slots - 1) / slots
			plan = append(plan, LayerComm{Index: i, Kind: Conv, UpCts: up, DownCts: down,
				MACs: int64(h) * int64(w) * int64(c) * int64(l.OutC) * int64(l.KH) * int64(l.KW)})
		case FC:
			in := h * w * c
			p := 1
			for p < in || p < l.FCOut {
				p <<= 1
			}
			up := (p + rowSlots - 1) / rowSlots
			down := (l.FCOut + slots - 1) / slots
			plan = append(plan, LayerComm{Index: i, Kind: FC, UpCts: up, DownCts: down,
				MACs: int64(in) * int64(l.FCOut)})
		}
	}
	return plan, nil
}

// UpCiphertextBytes returns the upload size per ciphertext in the
// paper's model: CHOCO's client holds the secret key, so uploads use
// seeded symmetric encryption — one polynomial of 8-byte words plus a
// 32-byte PRG seed (half a regular ciphertext).
func (n *Network) UpCiphertextBytes() int { return seededBytes(n.Params) }

// DownCiphertextBytes returns the download size per ciphertext in the
// paper's model (full two-component form at every data prime, 8-byte
// words; the server cannot seed-compress). CommPlan and CommBytes keep
// both, so Table 5 and Figs 10 and 15 stay the paper's; the executable
// sends less (ExecutableRequestCost): replies leave at fewer primes and
// every residue travels at its bit width.
func (n *Network) DownCiphertextBytes() int {
	return n.Params.CiphertextBytes()
}

// CommBytes returns the model's total bytes for one inference: seeded
// uploads plus full downloads.
func (n *Network) CommBytes() (int64, error) {
	plan, err := n.CommPlan()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, lc := range plan {
		total += int64(lc.UpCts)*int64(n.UpCiphertextBytes()) +
			int64(lc.DownCts)*int64(n.DownCiphertextBytes())
	}
	return total, nil
}

// EncDecCounts returns the client's encryption and decryption
// operation counts for one inference (one encryption per uploaded
// ciphertext, one decryption per downloaded one).
func (n *Network) EncDecCounts() (enc, dec int, err error) {
	plan, err := n.CommPlan()
	if err != nil {
		return 0, 0, err
	}
	for _, lc := range plan {
		enc += lc.UpCts
		dec += lc.DownCts
	}
	return enc, dec, nil
}

// ActivationCount returns the number of values flowing through client
// nonlinear layers (drives the small "client application ops" slice of
// Figs 2/12).
func (n *Network) ActivationCount() int64 {
	var total int64
	for i, l := range n.Layers {
		h, w, c := n.shapeAt(i)
		switch l.Kind {
		case Act, Pool:
			total += int64(h) * int64(w) * int64(c)
		}
	}
	return total
}

// ConvShape describes one convolution layer's geometry with its input
// resolved (used by the Fig 15 computation-vs-communication study).
type ConvShape struct {
	InH, InW, InC, KH, KW, OutC int
}

// MACs returns the layer's multiply-accumulate count.
func (s ConvShape) MACs() int64 {
	return int64(s.InH) * int64(s.InW) * int64(s.InC) * int64(s.OutC) * int64(s.KH) * int64(s.KW)
}

// InActivations and OutActivations return the dense activation counts.
func (s ConvShape) InActivations() int64  { return int64(s.InH) * int64(s.InW) * int64(s.InC) }
func (s ConvShape) OutActivations() int64 { return int64(s.InH) * int64(s.InW) * int64(s.OutC) }

// ConvShapes returns the resolved geometry of every conv layer.
func (n *Network) ConvShapes() []ConvShape {
	var out []ConvShape
	for i, l := range n.Layers {
		if l.Kind != Conv {
			continue
		}
		h, w, c := n.shapeAt(i)
		out = append(out, ConvShape{InH: h, InW: w, InC: c, KH: l.KH, KW: l.KW, OutC: l.OutC})
	}
	return out
}

// LinearLayerCount returns (conv, fc) counts for the Table 5 "Layers"
// columns.
func (n *Network) LinearLayerCount() (conv, fc, act, pool int) {
	for _, l := range n.Layers {
		switch l.Kind {
		case Conv:
			conv++
		case FC:
			fc++
		case Act:
			act++
		case Pool:
			pool++
		}
	}
	return
}

// HEShapeK returns the client-visible RNS residue count (data plus the
// key-switching prime handled during encryption's mod switch), i.e.
// the paper's k.
func (n *Network) HEShapeK() int {
	k := len(n.Params.QBits)
	if n.Params.PBits != 0 {
		k++
	}
	return k
}
