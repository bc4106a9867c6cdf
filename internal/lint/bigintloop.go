package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
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

func isHotPath(path string) bool {
	for _, suffix := range hotPathPackages {
		if pkgPathHasSuffix(path, suffix) {
			return true
		}
	}
	return false
}

// BigIntLoop flags loops in the hot-path packages that perform
// math/big arithmetic. One diagnostic is reported per outermost such
// loop (at the `for` keyword), so a single //lint:ignore-choco line
// above the loop acknowledges a deliberate big.Int loop — the
// correctness oracles, the ambiguity fallback, and one-time setup
// precomputation.
//
// It also looks one call level deep, since a math/big loop moved into a
// helper is otherwise invisible to its caller: a call, outside any
// reported loop, to a hot-path function whose body holds a math/big
// loop is reported at the call, whether or not the loop itself carries
// a suppression. The loop's reason says why the helper may loop; only
// the caller can say why it may call the helper, so each call site
// needs its own. Test files are exempt: oracles and fixtures are free
// to be slow.
var BigIntLoop = &Analyzer{
	Name: "bigintloop",
	Doc:  "flags per-iteration math/big arithmetic in hot-path loops, and hot-path calls to functions holding such loops",
	Run:  runBigIntLoop,
}

func runBigIntLoop(pass *Pass) error {
	if !isHotPath(pass.Pkg.Path()) {
		return nil
	}
	// loops memoizes, per callee, the position of the first math/big
	// loop in its body (token.NoPos for none or no body to read).
	loops := map[*types.Func]token.Pos{}
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				if fn := firstBigCall(pass.TypesInfo, loopBody(n)); fn != "" {
					pass.Reportf(n.Pos(),
						"loop calls math/big.%s per iteration in hot-path package %s; precompute at setup time or hoist out of the loop",
						fn, pass.Pkg.Path())
					return false // one report per outermost offending loop
				}
			case *ast.CallExpr:
				callee := calleeFunc(pass.TypesInfo, n)
				if callee == nil || callee.Pkg() == nil || !isHotPath(callee.Pkg().Path()) {
					return true
				}
				pos, seen := loops[callee]
				if !seen {
					pos = bigLoopIn(pass.loader, callee)
					loops[callee] = pos
				}
				if pos.IsValid() {
					at := pass.Fset.Position(pos)
					pass.Reportf(n.Pos(),
						"call to %s runs a math/big loop (%s:%d) from hot-path package %s; keep it off the request path or give this call its own reason",
						funcLabel(callee), filepath.Base(at.Filename), at.Line, pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}

// bigLoopIn returns the position of the first loop in fn's body that
// calls into math/big, or token.NoPos.
func bigLoopIn(l *Loader, fn *types.Func) token.Pos {
	decl, pkg := l.funcDecl(fn)
	if decl == nil || decl.Body == nil {
		return token.NoPos
	}
	found := token.NoPos
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found.IsValid() {
			return false
		}
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if firstBigCall(pkg.TypesInfo, loopBody(n)) != "" {
				found = n.Pos()
				return false
			}
		}
		return true
	})
	return found
}

// loopBody returns the body of a for or range statement.
func loopBody(n ast.Node) *ast.BlockStmt {
	if f, ok := n.(*ast.ForStmt); ok {
		return f.Body
	}
	return n.(*ast.RangeStmt).Body
}

// funcLabel names a function as its callers write it: pkg.F or
// pkg.T.M.
func funcLabel(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if n, ok := deref(recv.Type()).(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	return fmt.Sprintf("%s.%s", fn.Pkg().Name(), name)
}

// firstBigCall returns the name of the first math/big function or
// method called anywhere under n, or "" if there is none.
func firstBigCall(info *types.Info, n ast.Node) string {
	found := ""
	ast.Inspect(n, func(m ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "math/big" {
			found = fn.Name()
			return false
		}
		return true
	})
	return found
}
