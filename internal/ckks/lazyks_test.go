package ckks

import (
	"strings"
	"testing"
)

// TestRotateSumLazyMatchesSerialFold pins the CKKS lazy accumulator:
// one shared decomposition + QP accumulation + one FinalizeModDown must
// reproduce, byte for byte, the serial rotate-and-fold at full level and
// at every lower level reachable by rescaling.
func TestRotateSumLazyMatchesSerialFold(t *testing.T) {
	steps := []int{0, 1, 2, 5, -1}
	keySteps := []int{1, 2, 5, -1}
	for _, tc := range []struct {
		name   string
		params Parameters
	}{
		{"PresetTest", PresetTest()},
		{"PresetC", PresetC()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kit := newTestKit(t, tc.params, keySteps...)
			ct, err := kit.enc.EncryptFloats(rampFloats(kit.ctx.Params.Slots()))
			if err != nil {
				t.Fatal(err)
			}
			cts := []*Ciphertext{ct}
			for {
				cur := cts[len(cts)-1]
				if cur.Level == 0 {
					break
				}
				sq, err := kit.ev.MulRelin(cur, cur)
				if err != nil {
					t.Fatal(err)
				}
				low, err := kit.ev.Rescale(sq)
				if err != nil {
					t.Fatal(err)
				}
				cts = append(cts, low)
			}
			for _, c := range cts {
				var serial *Ciphertext
				for _, s := range steps {
					term, err := kit.ev.RotateLeft(c, s)
					if err != nil {
						t.Fatal(err)
					}
					if serial == nil {
						serial = term
					} else {
						serial, err = kit.ev.Add(serial, term)
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				lazy, err := kit.ev.RotateSumLazy(c, steps)
				if err != nil {
					t.Fatal(err)
				}
				if !ctsIdentical(kit.ctx.RingAtLevel(c.Level), serial, lazy) {
					t.Errorf("level %d: lazy rotation sum differs from serial fold", c.Level)
				}
				if lazy.Level != c.Level || lazy.Scale != c.Scale {
					t.Errorf("level %d: lazy rotation sum at level %d, scale %g; want the input's %d, %g",
						c.Level, lazy.Level, lazy.Scale, c.Level, c.Scale)
				}
			}
		})
	}
}

// TestLazyErrorPathsCKKS pins the missing-key and empty-step-list error
// paths of RotateSumLazy.
func TestLazyErrorPathsCKKS(t *testing.T) {
	kit := newTestKit(t, PresetTest(), 1)
	ct, err := kit.enc.EncryptFloats(rampFloats(kit.ctx.Params.Slots()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kit.ev.RotateSumLazy(ct, []int{0, 3}); err == nil {
		t.Fatal("expected missing-key error from RotateSumLazy")
	} else if !strings.Contains(err.Error(), "missing Galois key") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := kit.ev.RotateSumLazy(ct, nil); err == nil {
		t.Fatal("expected error for empty step list")
	}
}
