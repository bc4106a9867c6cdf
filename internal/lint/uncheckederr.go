package lint

import (
	"go/ast"
	"go/types"
)

// UncheckedErr flags silently dropped errors on the three call classes
// where a swallowed failure corrupts an offload session rather than a
// local computation:
//
//   - protocol frame writes (any error-returning function or method of
//     internal/protocol, e.g. Conn.Send, WriteFrame, marshals feeding
//     the wire),
//   - non-deferred Close calls on error-returning closers — a failed
//     Close on a transport is the only notification that the final
//     frames never reached the peer, and
//   - ring.Poly.Unpack, the one place wire bytes become residues: its
//     error is the range check, and a polynomial unpacked past it hands
//     the lazy-reduction kernels values they assume cannot occur.
//
// Explicitly discarding with `_ = call()` is accepted: it is visible in
// review and greppable. A bare expression statement is not.
var UncheckedErr = &Analyzer{
	Name: "uncheckederr",
	Doc:  "flags dropped errors from protocol writes and non-deferred Close calls",
	Run:  runUncheckedErr,
}

func runUncheckedErr(pass *Pass) error {
	info := pass.TypesInfo
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok || !returnsError(info, call) {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil {
				return true
			}
			switch {
			case fn.Name() == "Close":
				pass.Reportf(call.Pos(),
					"Close error dropped; on a transport this hides lost final frames — handle it or discard explicitly with `_ =`")
			case calleeIn(fn, "internal/protocol"):
				pass.Reportf(call.Pos(),
					"%s error dropped; a failed frame write desynchronizes the session — handle it or discard explicitly with `_ =`", fn.Name())
			case fn.Name() == "Unpack" && calleeIn(fn, "internal/ring"):
				pass.Reportf(call.Pos(),
					"Unpack error dropped; the polynomial may hold residues that are not reduced — handle it or discard explicitly with `_ =`")
			}
			return true
		})
	}
	return nil
}

// calleeIn reports whether fn belongs to the package whose import path
// ends in suffix.
func calleeIn(fn *types.Func, suffix string) bool {
	return fn.Pkg() != nil && pkgPathHasSuffix(fn.Pkg().Path(), suffix)
}
