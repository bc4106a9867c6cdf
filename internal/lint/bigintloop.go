package lint

import (
	"go/ast"
	"strings"
)

// hotPathPackages are the package-path suffixes forming the
// client-side arithmetic hot path. Per-coefficient math/big work in a
// loop here is exactly the overhead the RNS-native kernels were built
// to eliminate (a single big.Int CRT composition costs more than an
// entire NTT butterfly pass), so it must be precomputed at setup time,
// hoisted, or explicitly suppressed with a reason.
var hotPathPackages = []string{
	"internal/nt",
	"internal/ring",
	"internal/rlwe",
	"internal/bfv",
	"internal/ckks",
}

// BigIntLoop flags loops in the hot-path packages that perform
// math/big arithmetic. One diagnostic is reported per outermost such
// loop (at the `for` keyword), so a single //lint:ignore-choco line
// above the loop acknowledges a deliberate big.Int loop — the
// correctness oracles, the ambiguity fallback, and one-time setup
// precomputation. Test files are exempt: oracles and fixtures are
// free to be slow.
var BigIntLoop = &Analyzer{
	Name: "bigintloop",
	Doc:  "flags per-iteration math/big arithmetic in hot-path loops (precompute RNS constants instead)",
	Run:  runBigIntLoop,
}

func runBigIntLoop(pass *Pass) error {
	inHot := false
	for _, suffix := range hotPathPackages {
		if pkgPathHasSuffix(pass.Pkg.Path(), suffix) {
			inHot = true
			break
		}
	}
	if !inHot {
		return nil
	}
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			fn := firstBigCall(pass, body)
			if fn == "" {
				// No math/big anywhere under this loop, so no nested
				// loop can contain any either; descending is harmless
				// but pointless.
				return false
			}
			pass.Reportf(n.Pos(),
				"loop calls math/big.%s per iteration in hot-path package %s; precompute at setup time or hoist out of the loop",
				fn, pass.Pkg.Path())
			return false // one report per outermost offending loop
		})
	}
	return nil
}

// firstBigCall returns the name of the first math/big function or
// method called anywhere under n, or "" if there is none.
func firstBigCall(pass *Pass, n ast.Node) string {
	found := ""
	ast.Inspect(n, func(m ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "math/big" {
			found = fn.Name()
			return false
		}
		return true
	})
	return found
}
