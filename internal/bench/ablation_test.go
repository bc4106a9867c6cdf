package bench

import (
	"strings"
	"testing"
)

func TestAblationRotRed(t *testing.T) {
	out, err := AblationRotRed()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	if !strings.Contains(out, "rotational redundancy") {
		t.Error("missing rows")
	}
}

func TestAblationBSGS(t *testing.T) {
	out, err := AblationBSGS()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	// The generator itself validates both methods against the plain
	// product; here just confirm the reduction line rendered.
	if !strings.Contains(out, "rotation reduction") {
		t.Error("missing reduction line")
	}
}

func TestAblationParamMinimization(t *testing.T) {
	out, err := AblationParamMinimization()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	if !strings.Contains(out, "reduction vs SEAL default: 50%") {
		t.Errorf("expected the 50%% reduction headline, got:\n%s", out)
	}
}

func TestAblationPackedVsBatched(t *testing.T) {
	out, err := AblationPackedVsBatched()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	if !strings.Contains(out, "amortizes") {
		t.Error("missing crossover line")
	}
}

func TestSetupCosts(t *testing.T) {
	out, err := SetupCosts()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	if !strings.Contains(out, "VGG16") || !strings.Contains(out, "DemoNet") {
		t.Error("missing networks")
	}
	// LeNet-Sm runs: its 73 764-byte bundle (no Galois key, the public key
	// alone; 3.1 MB and 14.0 requests while conv2's 27 keys rode along,
	// 5.7 MB and 25.5 while conv1 and FC rotated too) amortizes over the
	// 76 340 wire bytes a request moves on the rounded wire (0.6 requests
	// over 130 340 while residues travelled full-width, 0.4 over 204 068
	// while each reply carried c1 whole), not over the model's
	// 589 920-byte figure. The networks the operators cannot lay out keep
	// the model.
	for _, want := range [][]string{
		{"LeNetSm", " 0 ", " 0.1 ", " 1.0 ", "executed"},
		{"LeNetLg", "modeled"},
		{"VGG16", "modeled"},
	} {
		var line string
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, want[0]+" ") {
				line = l
				break
			}
		}
		for _, w := range want[1:] {
			if !strings.Contains(line, w) {
				t.Errorf("%s setup row %q lacks %q", want[0], line, w)
			}
		}
	}
}
