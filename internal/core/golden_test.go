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
// one bit of a reply fails here. conv1, fc294x10 and fc24x1 were re-pinned
// when their shapes took the product packing: one plaintext product of
// a coefficient-encoded input, no key; conv2 when it took it as two
// tiles, one product each (its slot-packing digest went with the slot
// convolution). Before that, the four rows that rotated were re-pinned
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
			"e220d6f83b5ba3f2a7e7e153e21df7547729eff7ad8645e78c90330a876c4669",
		}, OpCounts{PlainMults: 1}},
		{"bfv-B/conv2", bfv.PresetB(), ConvSpec{InH: 14, InW: 14, InC: 4, KH: 5, KW: 5, OutC: 6}, 0, 0, []string{
			"0b919a476a85659a67f48363048cc80cb0f4ddbea50c9500c4346f56697eedc4",
			"159f7c4360b469e17edf45baa8cb046954d93b75c28ff70b5eb6c3778f873670",
		}, OpCounts{PlainMults: 2}},
		{"bfv-B/fc294x10", bfv.PresetB(), ConvSpec{}, 294, 10, []string{
			"4e5f51e46817d05393c8b56cda82bc47b36dd6ea50cf3e4772ffe5580e67276e",
		}, OpCounts{PlainMults: 1}},
		{"Test/fc24x1", bfv.PresetTest(), ConvSpec{}, 24, 1, []string{
			"a4f9aabee6164289ce0d4e7de5bbbab4aec01fb01b75ecfcfd711bba246cd198",
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
				steps   []int
				packed  []int64
				product bool
				apply   func(k *kit, ct *bfv.Ciphertext) ([]*bfv.Ciphertext, OpCounts, error)
			)
			if tc.in == 0 {
				conv, err := NewConv2D(tc.conv, synthConvWeights(src, tc.conv.OutC, tc.conv.InC, tc.conv.KH*tc.conv.KW, 7), slots/2)
				if err != nil {
					t.Fatal(err)
				}
				product = true
				if packed, err = conv.PackInput(synthImage(src, tc.conv.InC, tc.conv.InH*tc.conv.InW, 7), slots); err != nil {
					t.Fatal(err)
				}
				apply = func(k *kit, ct *bfv.Ciphertext) ([]*bfv.Ciphertext, OpCounts, error) {
					return conv.Apply(k.ev, k.ecd, ct, slots)
				}
			} else {
				fc := synthFC(t, src, tc.in, tc.out, slots/2)
				steps, product = fc.RotationSteps(), fc.Product()
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
			outs, ops, err := apply(k, k.encrypt(t, packed, product))
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
