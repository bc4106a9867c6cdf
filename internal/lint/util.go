package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// pkgPathHasSuffix reports whether an import path is, or ends with, the
// given slash-separated suffix. Matching by suffix (rather than the
// literal "choco/..." path) keeps the analyzers working in test
// fixtures, forks, and after a module rename.
func pkgPathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// deref unwraps a pointer type and any alias on either side of it, so
// *bfv.SecretKey resolves to the rlwe.SecretKey it names.
func deref(t types.Type) types.Type {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.Unalias(t)
}

// namedFrom reports whether t (possibly behind a pointer) is the named
// type pkgSuffix.name, e.g. ("internal/ring", "Poly") or ("sync",
// "Mutex").
func namedFrom(t types.Type, pkgSuffix, name string) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Name() == name && pkgPathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// isRingPoly reports whether t is ring.Poly or *ring.Poly.
func isRingPoly(t types.Type) bool {
	return t != nil && namedFrom(t, "internal/ring", "Poly")
}

// isRingPolyValue reports whether t is the bare (non-pointer) value
// type ring.Poly.
func isRingPolyValue(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ptr := t.(*types.Pointer); ptr {
		return false
	}
	return namedFrom(t, "internal/ring", "Poly")
}

// calleeFunc resolves the *types.Func a call expression invokes:
// package functions, methods (value and interface), and generic
// instantiations. Calls through function-typed variables return nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// calleeIsRingMethod reports whether call invokes a method or function
// of package internal/ring, returning its name.
func calleeIsRingMethod(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || !pkgPathHasSuffix(fn.Pkg().Path(), "internal/ring") {
		return "", false
	}
	return fn.Name(), true
}

// identOf returns the identifier an expression names, unwrapping
// parentheses and a leading &. Non-identifier expressions (selectors,
// index expressions) return nil: the flow analyses track simple local
// variables only.
func identOf(e ast.Expr) *ast.Ident {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = ast.Unparen(u.X)
	}
	id, _ := e.(*ast.Ident)
	return id
}

// objOf resolves an identifier to its object (use or def).
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if id == nil {
		return nil
	}
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// collectIdentObjs gathers the objects of every identifier appearing
// anywhere inside e (used to invalidate tracked state when a value
// escapes into an unknown call).
func collectIdentObjs(info *types.Info, e ast.Expr) []types.Object {
	var out []types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := objOf(info, id); o != nil {
				out = append(out, o)
			}
		}
		return true
	})
	return out
}

// returnsError reports whether the call's last result is the builtin
// error type.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}
