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
// one bit of a reply fails here. The four rows that rotate were re-pinned
// once, when switching keys became seeded (their A halves expand from a
// per-key seed, so the keys changed); fc24x1 rotates nothing and kept
// its digest.
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
			"d3cedb7eb5853be80575b8c0c4e6f246a184684b39b76a66dc30f10838a06352",
		}, OpCounts{Rotations: 24, PlainMults: 25, Adds: 24}},
		{"bfv-B/conv2", bfv.PresetB(), ConvSpec{InH: 14, InW: 14, InC: 4, KH: 5, KW: 5, OutC: 6}, 0, 0, []string{
			"a243573268626d95940fbe769bda0444aae797a8c5674777e35de3b9c50a2b2a",
		}, OpCounts{Rotations: 27, PlainMults: 100, Adds: 99}},
		{"bfv-B/fc294x10", bfv.PresetB(), ConvSpec{}, 294, 10, []string{
			"d8a5bab806e0106bf0e5974c97767a1f933b9ad86da3405670b29fd4f6ced557",
		}, OpCounts{Rotations: 6, PlainMults: 16, Adds: 15}},
		{"Test/fc24x1", bfv.PresetTest(), ConvSpec{}, 24, 1, []string{
			"de3040753afd5c480b81e7690c6f45ba86463c7c2a61b485793ec6054f4fc3ca",
		}, OpCounts{PlainMults: 1}},
		{"Test/fc64x64", bfv.PresetTest(), ConvSpec{}, 64, 64, []string{
			"86ad51a74db450f2a872ac978cb2b08671980cde9438274ecc9208ea7be92dc5",
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
