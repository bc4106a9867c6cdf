package lint

import (
	"go/ast"
	"go/types"
)

// NTTDomain enforces the ring.Poly domain discipline:
//
//  1. Nothing outside internal/ring may assign to Poly.IsNTT directly —
//     the flag must change through NTT/INTT (which transform) or the
//     audited DeclareNTT/DeclareCoeff escape hatches.
//  2. Within a function, calls to NTT-domain-only ops (MulCoeffs,
//     MulCoeffsAdd, MulCoeffsAddWide) must not receive a value whose last known domain is
//     the coefficient domain (freshly NewPoly'd, just INTT'd, or just
//     set from integer coefficients), Automorphism must not receive a
//     value that was just NTT'd, and AutomorphismNTT must not receive
//     one still in the coefficient domain. Add/Sub must not mix
//     domains.
//
// The domain tracking is deliberately conservative: it follows simple
// local variables in source order and forgets everything it cannot
// prove (parameters, values escaping into unknown calls, values whose
// IsNTT flag is explicitly tested), so a report means the operands are
// wrong on every path that reaches the call — the class of bug the
// runtime panics in internal/ring would otherwise surface mid-protocol.
var NTTDomain = &Analyzer{
	Name: "nttdomain",
	Doc:  "flags IsNTT writes outside internal/ring and domain-mismatched ring ops",
	Run:  runNTTDomain,
}

type domain int

const (
	domUnknown domain = iota
	domNTT
	domCoeff
)

func (d domain) String() string {
	switch d {
	case domNTT:
		return "NTT"
	case domCoeff:
		return "coefficient"
	}
	return "unknown"
}

func runNTTDomain(pass *Pass) error {
	if pkgPathHasSuffix(pass.Pkg.Path(), "internal/ring") {
		return nil // the ring package owns the flag
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "IsNTT" {
						continue
					}
					if isRingPoly(pass.TypesInfo.TypeOf(sel.X)) {
						pass.Reportf(sel.Pos(),
							"direct write to ring.Poly.IsNTT outside internal/ring; use NTT/INTT or (*Poly).DeclareNTT/DeclareCoeff")
					}
				}
			case *ast.FuncDecl:
				// Domain tracking is per-function; the walk still
				// descends so the IsNTT-write check above sees the body.
				if n.Body != nil {
					trackDomains(pass, n.Body)
				}
			}
			return true
		})
	}
	return nil
}

// trackDomains walks one function body in source order, tracking the
// last proven domain of each local ring.Poly variable and reporting
// calls whose operands are provably in the wrong domain.
func trackDomains(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	state := map[types.Object]domain{}

	polyObj := func(e ast.Expr) types.Object {
		id := identOf(e)
		o := objOf(info, id)
		if o == nil || !isRingPoly(o.Type()) {
			return nil
		}
		return o
	}
	get := func(e ast.Expr) domain {
		if o := polyObj(e); o != nil {
			return state[o]
		}
		return domUnknown
	}
	set := func(e ast.Expr, d domain) {
		if o := polyObj(e); o != nil {
			state[o] = d
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			// An explicit IsNTT test means the code handles both
			// domains; stop tracking the tested variable.
			ast.Inspect(n.Cond, func(c ast.Node) bool {
				if sel, ok := c.(*ast.SelectorExpr); ok && sel.Sel.Name == "IsNTT" {
					set(sel.X, domUnknown)
				}
				return true
			})

		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					o := polyObj(lhs)
					if o == nil {
						continue
					}
					state[o] = domainOfRHS(info, state, n.Rhs[i])
				}
			} else {
				for _, lhs := range n.Lhs {
					set(lhs, domUnknown)
				}
			}

		case *ast.CallExpr:
			name, isRing := calleeIsRingMethod(info, n)
			if !isRing {
				// A Poly escaping into a call we do not model may be
				// transformed there; forget what we knew.
				for _, arg := range n.Args {
					for _, o := range collectIdentObjs(info, arg) {
						if isRingPoly(o.Type()) {
							state[o] = domUnknown
						}
					}
				}
				return true
			}
			arg := func(i int) ast.Expr {
				if i < len(n.Args) {
					return n.Args[i]
				}
				return nil
			}
			recv := func() ast.Expr {
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					return sel.X
				}
				return nil
			}
			switch name {
			case "NTT":
				set(arg(0), domNTT)
			case "INTT":
				set(arg(0), domCoeff)
			case "DeclareNTT":
				set(recv(), domNTT)
			case "DeclareCoeff":
				set(recv(), domCoeff)
			case "MulCoeffs", "MulCoeffsAdd", "MulCoeffsAddWide":
				reported := map[string]bool{}
				for i := 0; i < 2; i++ {
					if nm := exprName(arg(i)); get(arg(i)) == domCoeff && !reported[nm] {
						reported[nm] = true
						pass.Reportf(n.Pos(),
							"%s requires NTT-domain operands, but %s is in the coefficient domain here", name, nm)
					}
				}
				set(arg(2), domNTT)
			case "Automorphism":
				if get(arg(0)) == domNTT {
					pass.Reportf(n.Pos(),
						"Automorphism requires a coefficient-domain input, but %s is in the NTT domain here", exprName(arg(0)))
				}
				set(arg(2), domCoeff)
			case "AutomorphismNTT":
				if get(arg(0)) == domCoeff {
					pass.Reportf(n.Pos(),
						"AutomorphismNTT requires an NTT-domain input, but %s is in the coefficient domain here", exprName(arg(0)))
				}
				set(arg(2), domNTT)
			case "AutomorphismNTTMulShoupAdd2":
				// (a, g, b0, b0Shoup, out0, b1, b1Shoup, out1): the
				// gathered input and both key halves are NTT-domain only.
				reported := map[string]bool{}
				for _, i := range []int{0, 2, 5} {
					if nm := exprName(arg(i)); get(arg(i)) == domCoeff && !reported[nm] {
						reported[nm] = true
						pass.Reportf(n.Pos(),
							"AutomorphismNTTMulShoupAdd2 requires NTT-domain operands, but %s is in the coefficient domain here", nm)
					}
				}
				set(arg(4), domNTT)
				set(arg(7), domNTT)
			case "PolyToBigintCentered", "InfNormBig":
				if get(arg(0)) == domNTT {
					pass.Reportf(n.Pos(),
						"%s requires a coefficient-domain input, but %s is in the NTT domain here", name, exprName(arg(0)))
				}
			case "Add", "Sub":
				da, db := get(arg(0)), get(arg(1))
				if da != domUnknown && db != domUnknown && da != db {
					pass.Reportf(n.Pos(),
						"%s mixes domains: %s is %s but %s is %s", name,
						exprName(arg(0)), da, exprName(arg(1)), db)
				}
				set(arg(2), da)
			case "Neg":
				set(arg(1), get(arg(0)))
			case "MulScalar", "MulScalarBig":
				set(arg(2), get(arg(0)))
			case "Copy":
				set(arg(0), get(arg(1)))
			case "Zero":
				set(arg(0), domCoeff)
			case "SetCoeffsBigint", "SetCoeffsUint64", "SetCoeffsInt64":
				set(arg(1), domCoeff)
			}
		}
		return true
	})
}

// domainOfRHS classifies what an assignment's right-hand side proves
// about the new value's domain.
func domainOfRHS(info *types.Info, state map[types.Object]domain, rhs ast.Expr) domain {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return domUnknown
	}
	name, isRing := calleeIsRingMethod(info, call)
	if !isRing {
		return domUnknown
	}
	switch name {
	case "NewPoly":
		return domCoeff // NewPoly yields a zero coefficient-domain poly
	case "ReduceWideAcc":
		return domNTT // the reduced sum of NTT-domain products
	case "CopyPoly":
		if len(call.Args) == 1 {
			if id := identOf(call.Args[0]); id != nil {
				if o := objOf(info, id); o != nil {
					return state[o]
				}
			}
		}
	}
	return domUnknown
}

// exprName renders a short name for diagnostics.
func exprName(e ast.Expr) string {
	if e == nil {
		return "operand"
	}
	if id := identOf(e); id != nil {
		return id.Name
	}
	return "operand"
}
