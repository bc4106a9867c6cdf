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
}
