package core

import (
	"testing"

	"choco/internal/bfv"
	"choco/internal/sampling"
)

// TestRequestPathGolden pins the bytes and op counts of what a request
// runs — Conv2D.Apply and FC.Apply at their one schedule — on LeNet-Sm's
// three layer shapes at bfv-B and on FC's one-output and square shapes
// at the Test preset, each under its own keys, synthesized weights and
// one encrypted input. The digests are the hashV1Frame of every output
// ciphertext: a change to the executor or to the conv packing that moves
// one bit of a reply fails here.
func TestRequestPathGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		params  bfv.Parameters
		conv    ConvSpec // a conv layer when in is 0, else an FC layer in×out
		in, out int
		want    []string
		ops     OpCounts
	}{
		{"bfv-B/conv1", bfv.PresetB(), ConvSpec{InH: 28, InW: 28, InC: 1, KH: 5, KW: 5, OutC: 4}, 0, 0, []string{
			"1868ffd618b1d0c93526af1f4604f5ab0fcdd3bc9cc6cc2e38eed63a2a06b627",
		}, OpCounts{Rotations: 24, PlainMults: 25, Adds: 24}},
		{"bfv-B/conv2", bfv.PresetB(), ConvSpec{InH: 14, InW: 14, InC: 4, KH: 5, KW: 5, OutC: 6}, 0, 0, []string{
			"bd7748d973d467dd171d0977ca3364dea5a9c2b081c3eaa56a540a3bec65f955",
		}, OpCounts{Rotations: 27, PlainMults: 100, Adds: 99}},
		{"bfv-B/fc294x10", bfv.PresetB(), ConvSpec{}, 294, 10, []string{
			"82a8b344ff30cd71be4886786494e82072f87a59067bd303a3103ecdaf093dde",
		}, OpCounts{Rotations: 6, PlainMults: 16, Adds: 15}},
		{"Test/fc24x1", bfv.PresetTest(), ConvSpec{}, 24, 1, []string{
			"de3040753afd5c480b81e7690c6f45ba86463c7c2a61b485793ec6054f4fc3ca",
		}, OpCounts{PlainMults: 1}},
		{"Test/fc64x64", bfv.PresetTest(), ConvSpec{}, 64, 64, []string{
			"765b32ef59cced957daf2548d10e0c5ff6b08a689c248b84fadd2105cc778858",
		}, OpCounts{Rotations: 14, PlainMults: 64, Adds: 63}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := sampling.NewSource([32]byte{36}, "request-path-golden/"+tc.name)
			ctxProbe, err := bfv.NewContext(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			slots := ctxProbe.Params.Slots()
			var (
				steps  []int
				packed []int64
				apply  func(k *kit, ct *bfv.Ciphertext) ([]*bfv.Ciphertext, OpCounts, error)
			)
			if tc.in == 0 {
				conv, err := NewConv2D(tc.conv, synthConvWeights(src, tc.conv.OutC, tc.conv.InC, tc.conv.KH*tc.conv.KW, 7), slots/2)
				if err != nil {
					t.Fatal(err)
				}
				steps = conv.RotationSteps()
				if packed, err = conv.PackInput(synthImage(src, tc.conv.InC, tc.conv.InH*tc.conv.InW, 7), slots); err != nil {
					t.Fatal(err)
				}
				apply = func(k *kit, ct *bfv.Ciphertext) ([]*bfv.Ciphertext, OpCounts, error) {
					return conv.Apply(k.ev, k.ecd, ct, slots)
				}
			} else {
				fc := synthFC(t, src, tc.in, tc.out, slots/2)
				steps = fc.RotationSteps()
				x := make([]int64, fc.In)
				for i := range x {
					x[i] = int64(src.Intn(15)) - 7
				}
				if packed, err = fc.PackInput(x, slots); err != nil {
					t.Fatal(err)
				}
				apply = func(k *kit, ct *bfv.Ciphertext) ([]*bfv.Ciphertext, OpCounts, error) {
					out, ops, err := fc.Apply(k.ev, k.ecd, ct, slots)
					return []*bfv.Ciphertext{out}, ops, err
				}
			}
			k := newFCLevelKit(t, tc.params, 6, steps)
			ct, err := k.enc.EncryptInts(packed)
			if err != nil {
				t.Fatal(err)
			}
			outs, ops, err := apply(k, ct)
			if err != nil {
				t.Fatal(err)
			}
			if ops != tc.ops {
				t.Errorf("op counts %+v, pinned %+v", ops, tc.ops)
			}
			if len(outs) != len(tc.want) {
				t.Errorf("%d outputs, %d pinned", len(outs), len(tc.want))
			}
			for i, o := range outs {
				sum := hashV1Frame(o)
				t.Logf("output %d: %s", i, sum)
				if i < len(tc.want) && sum != tc.want[i] {
					t.Errorf("output %d hashes to %s, pinned %s", i, sum, tc.want[i])
				}
			}
		})
	}
}
