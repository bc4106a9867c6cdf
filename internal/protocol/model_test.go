package protocol

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

// testModel is LeNet-Sm's three product layers with 4-bit weights that
// run through the whole range ±7.
func testModel() ([]ModelLayer, [][]int64) {
	layers := []ModelLayer{{0, 4, 1, 25}, {3, 6, 4, 25}, {6, 10, 294, 1}}
	weights := make([][]int64, len(layers))
	for i, l := range layers {
		weights[i] = make([]int64, l.Out*l.In*l.Taps)
		for j := range weights[i] {
			weights[i][j] = int64((j*5+i)%15) - 7
		}
	}
	return layers, weights
}

// TestModelFrame holds the model frame to its contract: LeNet-Sm's 3 640
// 4-bit weights travel in 1 892 B with the length prefix (16-byte header,
// 16 bytes a layer, 1 824 B of fields), the request in 12, and the frame
// decodes to the weights it was made from. The encoder refuses a width
// outside 2…8 bits, a weight outside its width's range and a count that
// is not its layer's shape; the decoder refuses, by name, every way a
// frame can disagree with the client's architecture or be malformed.
func TestModelFrame(t *testing.T) {
	layers, weights := testModel()
	frame, err := MarshalModel(layers, weights, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := ModelExchangeBytes(layers, 4); got != 1904 || len(frame)+lengthPrefixBytes != 1892 || len(MarshalModelRequest())+lengthPrefixBytes != 12 {
		t.Errorf("model exchange %d B, frame %d B and request %d B on the wire; want 1 904, 1 892 and 12",
			got, len(frame)+lengthPrefixBytes, len(MarshalModelRequest())+lengthPrefixBytes)
	}
	bits, got, err := UnmarshalModel(frame, layers)
	if err != nil || bits != 4 {
		t.Fatalf("the frame decodes to %d bits, %v", bits, err)
	}
	for i := range layers {
		if !slices.Equal(got[i], weights[i]) {
			t.Fatalf("layer %d decodes to other weights", i)
		}
	}
	if !IsModelRequest(MarshalModelRequest()) || IsModelRequest(frame) || IsModelRequest(MarshalModelRequest()[:7]) {
		t.Error("IsModelRequest does not recognise exactly the request")
	}

	for _, tc := range []struct {
		name    string
		weights [][]int64
		bits    int
		want    string
	}{
		{"1-bit weights", weights, 1, "bits"},
		{"9-bit weights", weights, 9, "bits"},
		{"a weight of -8 at 4 bits", [][]int64{weights[0], weights[1], append([]int64{-8}, weights[2][1:]...)}, 4, "outside ±7"},
		{"a weight short", [][]int64{weights[0][1:], weights[1], weights[2]}, 4, "takes 100"},
		{"a layer short", weights[:2], 4, "weight lists"},
	} {
		if _, err := MarshalModel(layers, tc.weights, tc.bits); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: MarshalModel says %v, want an error saying %q", tc.name, err, tc.want)
		}
	}

	fields := modelHeaderBytes + modelLayerBytes*len(layers)
	allOnesField := func(b []byte) []byte { b[fields] |= 0x0f; return b } // the first weight's field: 15 is 2^4 − 1
	for _, tc := range []struct {
		name  string
		frame []byte
		want  []ModelLayer
		err   string
	}{
		{"valid", frame, layers, ""},
		{"8-bit weights", modelAt(t, layers, weights, 8), layers, ""},
		{"a request's magic", mutated(frame, setU32(0, modelRequestMagic)), layers, "not a model frame"},
		{"truncated in the header", frame[:12], layers, "truncated"},
		{"truncated in the layers", frame[:fields-4], layers, "truncated"},
		{"one word short", frame[:len(frame)-8], layers, "length"},
		{"one word long", append(bytes.Clone(frame), make([]byte, 8)...), layers, "length"},
		{"version 1", mutated(frame, setU32(4, 1)), layers, "version"},
		{"0-bit weights", mutated(frame, setU32(8, 0)), layers, "bits"},
		{"9-bit weights", mutated(frame, setU32(8, 9)), layers, "bits"},
		{"2^32−1-bit weights", mutated(frame, setU32(8, math.MaxUint32)), layers, "bits"},
		{"5-bit weights in a 4-bit frame", mutated(frame, setU32(8, 5)), layers, "length"},
		{"one layer fewer than the network's", frame, layers[:2], "layers"},
		{"a layer count of 2^32−1", mutated(frame, setU32(12, math.MaxUint32)), layers, "layers"},
		{"another layer index", mutated(frame, setU32(modelHeaderBytes, 1)), layers, "the network's"},
		{"conv2 with five outputs", mutated(frame, setU32(modelHeaderBytes+modelLayerBytes+4, 5)), layers, "the network's"},
		{"the FC 3×3 taps", mutated(frame, setU32(modelHeaderBytes+2*modelLayerBytes+12, 9)), layers, "the network's"},
		{"a weight field of all ones", mutated(frame, allOnesField), layers, "not reduced"},
		{"padding bit set", mutated(frame, func(b []byte) []byte { b[len(b)-1] |= 0x80; return b }), layers, "padding"},
	} {
		_, _, err := UnmarshalModel(tc.frame, tc.want)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: rejected a valid frame: %v", tc.name, err)
		case tc.err != "" && err == nil:
			t.Errorf("%s: accepted the frame", tc.name)
		case tc.err != "" && !strings.Contains(err.Error(), tc.err):
			t.Errorf("%s: failed with %q, want the %q check to fire", tc.name, err, tc.err)
		}
	}
}

// modelAt marshals the model at bits-bit weights.
func modelAt(t *testing.T, layers []ModelLayer, weights [][]int64, bits int) []byte {
	t.Helper()
	frame, err := MarshalModel(layers, weights, bits)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}
