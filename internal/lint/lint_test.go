package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"regexp"
	"strings"
	"testing"
)

// runFixture loads the fixture package at testdata/src/<path>, applies
// one analyzer (with suppression filtering), and compares the surviving
// diagnostics against the fixture's `// want `+"`regex`"+“ comments:
// every diagnostic must match a want on its line, and every want must
// be matched — so the corrected forms in each fixture double as
// silence proofs.
func runFixture(t *testing.T, a *Analyzer, path string) {
	t.Helper()
	l := NewLoader(".")
	l.Overlay = "testdata/src"
	pkg, err := l.LoadOverlay(path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	diags, err := RunAnalyzers(l.Fset(), []*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, path, err)
	}

	wants := collectWants(t, l.Fset(), pkg)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.re)
			}
		}
	}
}

type want struct {
	re   *regexp.Regexp
	used bool
}

var wantRE = regexp.MustCompile("// want `([^`]+)`")

func collectWants(t *testing.T, fset *token.FileSet, pkg *Package) map[string][]*want {
	t.Helper()
	wants := map[string][]*want{}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				wants[key] = append(wants[key], &want{re: re})
			}
		}
	}
	return wants
}

func TestNTTDomainFixture(t *testing.T) { runFixture(t, NTTDomain, "nttdomain") }
func TestInsecureRandFixture(t *testing.T) {
	runFixture(t, InsecureRand, "insecurerand/internal/sampling")
}
func TestPolyCopyFixture(t *testing.T) { runFixture(t, PolyCopy, "polycopy") }
func TestPolyPoolFixture(t *testing.T) { runFixture(t, PolyPool, "polypool/internal/bfv") }
func TestPolyPoolNTTFixture(t *testing.T) {
	runFixture(t, PolyPool, "polypool/internal/core")
}
func TestLockedNetFixture(t *testing.T) { runFixture(t, LockedNet, "lockednet/internal/serve") }
func TestLockedNetFabricFixture(t *testing.T) {
	runFixture(t, LockedNet, "lockednet/internal/fabric")
}
func TestUncheckedErrFixture(t *testing.T) {
	runFixture(t, UncheckedErr, "uncheckederr/internal/protocol")
}
func TestUncheckedErrUnpackFixture(t *testing.T) {
	runFixture(t, UncheckedErr, "uncheckederr/internal/ring")
}
func TestBigIntLoopFixture(t *testing.T) {
	runFixture(t, BigIntLoop, "bigintloop/internal/bfv")
}

// The parent's CKKS encoder shape: calls into suppressed big-integer
// loops one package away.
func TestBigIntLoopCallFixture(t *testing.T) {
	runFixture(t, BigIntLoop, "bigintloop/internal/ckks")
}
func TestSuppressionFixture(t *testing.T) { runFixture(t, UncheckedErr, "suppress") }
func TestSecretFlowFixture(t *testing.T)  { runFixture(t, SecretFlow, "secretflow") }
func TestGoroLeakFixture(t *testing.T) {
	runFixture(t, GoroLeak, "goroleak/internal/fabric")
}
func TestDeadlineCheckFixture(t *testing.T) {
	runFixture(t, DeadlineCheck, "deadlinecheck/internal/serve")
}

// TestMalformedSuppressions exercises the suppression parser directly:
// an unknown analyzer name or a missing reason turns the suppression
// itself into a diagnostic.
func TestMalformedSuppressions(t *testing.T) {
	src := `package p

func f() {
	//lint:ignore-choco uncheckederr
	g()
	//lint:ignore-choco nosuchanalyzer because reasons
	g()
	//lint:ignore-choco lockednet benchmark holds the lock deliberately
	g()
}

func g() {}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sups, malformed := collectSuppressions(fset, []*ast.File{file})
	if len(malformed) != 2 {
		t.Fatalf("got %d malformed-suppression diagnostics, want 2: %v", len(malformed), malformed)
	}
	for _, d := range malformed {
		if d.Analyzer != "suppression" {
			t.Errorf("malformed diagnostic attributed to %q, want \"suppression\"", d.Analyzer)
		}
	}
	if !strings.Contains(malformed[0].Message, "no reason") {
		t.Errorf("first malformed message = %q, want missing-reason complaint", malformed[0].Message)
	}
	if !strings.Contains(malformed[1].Message, "known analyzer") {
		t.Errorf("second malformed message = %q, want unknown-analyzer complaint", malformed[1].Message)
	}
	// The one well-formed suppression must be recorded for its line.
	if !sups.covers(Diagnostic{Analyzer: "lockednet", Pos: token.Position{Filename: "p.go", Line: 9}}) {
		t.Error("well-formed lockednet suppression not recorded for the following line")
	}
}

// TestSuiteCleanOnTree dogfoods the full suite against the real module:
// the tree must stay chocolint-clean, and the run doubles as a smoke
// test that the source-level loader can type-check every package.
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	diags, err := Run("../..", []string{"./..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("chocolint finding on clean tree: %s", d)
	}
}

// TestAnalyzersFollowSharedCore guards the analyzers' scopes against the
// code moving under them. The key types of bfv and ckks are aliases of
// internal/rlwe's, and an analyzer that asks "is this bfv.SecretKey?" by
// package path goes quiet — without failing — the day the type moves. So
// this test asks the real tree, not a fixture's stand-in: what
// bfv.NewKeyGenerator(...).GenSecretKey() returns must be secret to
// secretflow, the generator itself too, its public Gen* methods must stay
// sanitizers, and a RotateRowsLazyNTT result leaked in a package named
// internal/core must still be a polypool finding when the evaluator is the
// real one.
func TestAnalyzersFollowSharedCore(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks internal/bfv and its dependencies from source")
	}
	l := NewLoader(".")
	l.Overlay = "testdata/src"
	leaky, err := l.LoadOverlay("polypool/internal/core")
	if err != nil {
		t.Fatal(err)
	}
	bfvPkg := l.pkgs["choco/internal/bfv"]
	if bfvPkg == nil || strings.Contains(l.Fset().Position(bfvPkg.Files[0].Pos()).Filename, "testdata") {
		t.Fatal("the polypool/internal/core fixture no longer imports the real internal/bfv")
	}

	newKG := bfvPkg.Types.Scope().Lookup("NewKeyGenerator").(*types.Func)
	kg := newKG.Type().(*types.Signature).Results().At(0).Type()
	if !isSecretType(kg) {
		t.Errorf("secretflow does not treat %s as secret", kg)
	}
	method := func(name string) *types.Func {
		obj, _, _ := types.LookupFieldOrMethod(kg, true, bfvPkg.Types, name)
		fn, ok := obj.(*types.Func)
		if !ok {
			t.Fatalf("%s has no method %s", kg, name)
		}
		return fn
	}
	if sk := method("GenSecretKey").Type().(*types.Signature).Results().At(0).Type(); !isSecretType(sk) {
		t.Errorf("secretflow does not treat %s, the result of GenSecretKey, as secret", sk)
	}
	if isSanitizer(method("GenSecretKey")) {
		t.Error("secretflow treats GenSecretKey as a sanitizer")
	}
	for _, name := range []string{"GenPublicKey", "GenRelinearizationKey", "GenRotationKeys"} {
		if !isSanitizer(method(name)) {
			t.Errorf("secretflow no longer treats KeyGenerator.%s as a sanitizer", name)
		}
	}

	diags, err := RunAnalyzers(l.Fset(), []*Package{leaky}, []*Analyzer{PolyPool})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		found = found || strings.Contains(d.Message, "x does not reach RecycleNTT or FromNTT")
	}
	if !found {
		t.Errorf("polypool no longer reports the leaked RotateRowsLazyNTT result; got %v", diags)
	}
}
