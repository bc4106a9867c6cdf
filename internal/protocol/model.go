package protocol

import (
	"encoding/binary"
	"fmt"

	"choco/internal/ring"
)

// Model frames. A product-packed layer's reply carries no c1: the client
// rebuilds it from its upload's a and the layer's kernel
// (bfv.Context.ProductC1), so it needs the product layers' weights, which
// the threat model does not hide from it (DESIGN.md §15). Before its first
// request it sends a model request, and the server answers with the model
// frame it marshalled once: a 16-byte header (magic, version, weight
// width b, layer count), 16 bytes per layer (ModelLayer), then every
// weight w as the field w + 2^(b−1) − 1 of b bits (ring.AppendFields),
// layer after layer, in one stream.

const (
	modelRequestMagic = uint32(0x51524d43) // "CMRQ" on the wire (little-endian)
	modelMagic        = uint32(0x4c444d43) // "CMDL"
	modelRequestBytes = 8
	modelHeaderBytes  = 16
	modelLayerBytes   = 16
)

// maxModelWeightBits is the widest weight a model frame carries: Table 5
// quantizes to 4 and 8 bits.
const maxModelWeightBits = 8

// ModelLayer is one product layer in a model frame: its index among the
// network's layers and the shape of its weights, Out × In × Taps in
// row-major order — a convolution's [out][in][tap], an FC layer's
// [row][column] with Taps 1.
type ModelLayer struct{ Index, Out, In, Taps int }

func (l ModelLayer) weights() int { return l.Out * l.In * l.Taps }

// MarshalModelRequest returns the frame a client sends for the model.
func MarshalModelRequest() []byte {
	buf := make([]byte, modelRequestBytes)
	binary.LittleEndian.PutUint32(buf, modelRequestMagic)
	binary.LittleEndian.PutUint32(buf[4:], HelloVersion)
	return buf
}

// IsModelRequest reports whether data is MarshalModelRequest's frame.
func IsModelRequest(data []byte) bool {
	return len(data) == modelRequestBytes && binary.LittleEndian.Uint32(data) == modelRequestMagic &&
		binary.LittleEndian.Uint32(data[4:]) == HelloVersion
}

// ModelExchangeBytes returns what the model request and the model frame of
// layers at bits-bit weights cost on the wire together, both length
// prefixes included.
func ModelExchangeBytes(layers []ModelLayer, bits int) int {
	return 2*lengthPrefixBytes + modelRequestBytes + modelFrameBytes(layers, bits)
}

// modelFrameBytes is the size of the model frame of layers at bits-bit
// weights.
func modelFrameBytes(layers []ModelLayer, bits int) int {
	count := 0
	for _, l := range layers {
		count += l.weights()
	}
	return modelHeaderBytes + modelLayerBytes*len(layers) + ring.PackedFieldsBytes(count, bits)
}

// MarshalModel writes the model frame of layers, weights[i] the flat
// weights of layers[i], at bits-bit weights. It refuses a width outside
// [2, maxModelWeightBits], a weight count that is not its layer's shape,
// and a weight beyond ±(2^(bits−1) − 1), the symmetric quantization's
// range.
func MarshalModel(layers []ModelLayer, weights [][]int64, bits int) ([]byte, error) {
	if bits < 2 || bits > maxModelWeightBits {
		return nil, fmt.Errorf("protocol: model weights of %d bits, want 2…%d", bits, maxModelWeightBits)
	}
	if len(weights) != len(layers) {
		return nil, fmt.Errorf("protocol: %d weight lists for %d layers", len(weights), len(layers))
	}
	lim := int64(1)<<(bits-1) - 1
	var flat []int64
	for i, l := range layers {
		if len(weights[i]) != l.weights() {
			return nil, fmt.Errorf("protocol: layer %d has %d weights, its shape %d×%d×%d takes %d", l.Index, len(weights[i]), l.Out, l.In, l.Taps, l.weights())
		}
		for _, w := range weights[i] {
			if w < -lim || w > lim {
				return nil, fmt.Errorf("protocol: layer %d weight %d outside ±%d, the range of %d bits", l.Index, w, lim, bits)
			}
		}
		flat = append(flat, weights[i]...)
	}
	buf := make([]byte, modelHeaderBytes+modelLayerBytes*len(layers), modelFrameBytes(layers, bits))
	binary.LittleEndian.PutUint32(buf, modelMagic)
	binary.LittleEndian.PutUint32(buf[4:], HelloVersion)
	binary.LittleEndian.PutUint32(buf[8:], uint32(bits))
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(layers)))
	for i, l := range layers {
		at := buf[modelHeaderBytes+modelLayerBytes*i:]
		for j, v := range []int{l.Index, l.Out, l.In, l.Taps} {
			binary.LittleEndian.PutUint32(at[4*j:], uint32(v))
		}
	}
	return ring.AppendFields(buf, len(flat), uint(bits), func(i int) uint64 { return uint64(flat[i] + lim) }), nil
}

// UnmarshalModel reads a model frame for a client whose architecture has
// the product layers want, strictly: the magic and version, a width in
// [2, maxModelWeightBits], exactly the layers of want with their shapes,
// the exact length, every weight within ±(2^(bits−1) − 1) and zero
// padding bits. It allocates nothing the client's own shapes do not
// bound. It returns the width and each layer's flat weights.
func UnmarshalModel(data []byte, want []ModelLayer) (bits int, weights [][]int64, err error) {
	if len(data) < modelHeaderBytes {
		return 0, nil, fmt.Errorf("protocol: truncated model frame (%d B)", len(data))
	}
	if binary.LittleEndian.Uint32(data) != modelMagic {
		return 0, nil, fmt.Errorf("protocol: not a model frame")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != HelloVersion {
		return 0, nil, fmt.Errorf("protocol: model frame version %d, this peer speaks version %d", v, HelloVersion)
	}
	b := binary.LittleEndian.Uint32(data[8:])
	if b < 2 || b > maxModelWeightBits {
		return 0, nil, fmt.Errorf("protocol: model weights of %d bits, want 2…%d", b, maxModelWeightBits)
	}
	bits = int(b)
	if n := binary.LittleEndian.Uint32(data[12:]); n != uint32(len(want)) {
		return 0, nil, fmt.Errorf("protocol: model frame has %d layers, the network has %d product layers", n, len(want))
	}
	if len(data) < modelHeaderBytes+modelLayerBytes*len(want) {
		return 0, nil, fmt.Errorf("protocol: truncated model frame (%d B)", len(data))
	}
	count := 0
	for i, l := range want {
		at := data[modelHeaderBytes+modelLayerBytes*i:]
		got := ModelLayer{}
		for j, v := range []*int{&got.Index, &got.Out, &got.In, &got.Taps} {
			*v = int(binary.LittleEndian.Uint32(at[4*j:]))
		}
		if got != l {
			return 0, nil, fmt.Errorf("protocol: model layer %d is %+v, the network's is %+v", i, got, l)
		}
		count += l.weights()
	}
	if size := modelFrameBytes(want, bits); len(data) != size {
		return 0, nil, fmt.Errorf("protocol: model frame length %d, want %d", len(data), size)
	}
	flat := make([]int64, count)
	lim := int64(1)<<(bits-1) - 1
	if err := ring.UnpackFields(data[modelHeaderBytes+modelLayerBytes*len(want):], count, uint(bits), uint64(2*lim+1),
		func(i int, v uint64) { flat[i] = int64(v) - lim }); err != nil {
		return 0, nil, fmt.Errorf("protocol: model weights: %w", err)
	}
	weights = make([][]int64, len(want))
	for i, l := range want {
		weights[i], flat = flat[:l.weights():l.weights()], flat[l.weights():]
	}
	return bits, weights, nil
}
