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
// when switching keys became seeded (their A halves expand from a
// per-key seed, so the keys changed); fc24x1 rotates nothing and kept
// its digest then. All five were re-pinned when the error sampler became
// the table sampler: the input's encryption error changed.
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
			"85bac544bbc3fdcc7186c23a9dccdba026d36a22d8db41947459596154d749b5",
		}, OpCounts{Rotations: 24, PlainMults: 25, Adds: 24}},
		{"bfv-B/conv2", bfv.PresetB(), ConvSpec{InH: 14, InW: 14, InC: 4, KH: 5, KW: 5, OutC: 6}, 0, 0, []string{
			"ce8bd7a3a06a15e5669fb6198e181290f16ec683647373a77722747a8f05193e",
		}, OpCounts{Rotations: 27, PlainMults: 100, Adds: 99}},
		{"bfv-B/fc294x10", bfv.PresetB(), ConvSpec{}, 294, 10, []string{
			"8f14df24a2dea75fc44f2bc731bb53b138434fa8e6604446ec0623074ec08540",
		}, OpCounts{Rotations: 6, PlainMults: 16, Adds: 15}},
		{"Test/fc24x1", bfv.PresetTest(), ConvSpec{}, 24, 1, []string{
			"f40a4a6c8774ff1c0338220b5c507c3aa975abae9fc619df4333f004066790bd",
		}, OpCounts{PlainMults: 1}},
		{"Test/fc64x64", bfv.PresetTest(), ConvSpec{}, 64, 64, []string{
			"f2d0a92b4dfbb5b08878e2fd5d697531aeff80d91842329fd7a739cd7008600b",
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
