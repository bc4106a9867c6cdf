package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// poolPackages are the package-path suffixes whose ring scratch-pool
// discipline polypool enforces. These are the packages sitting on the
// HE hot paths, where a leaked pool poly silently degrades the
// GetPoly/PutPoly cache into per-call allocation.
var poolPackages = []string{
	"internal/rlwe",
	"internal/bfv",
	"internal/ckks",
	"internal/core",
}

// PolyPool flags ring scratch polys taken with GetPoly (or left by
// ReduceWideAcc) that are not returned with PutPoly on every exit path of
// the acquiring function; the ring's lazy multiply-accumulators
// (GetWideAcc: two pool polys each) that reach neither ReduceWideAcc nor
// PutWideAcc; and — the same discipline one level up — the resident
// ciphertexts and accumulators of the bfv evaluator (ToNTT,
// RotateRowsLazyNTT, NewNTTAccumulator) that do not reach RecycleNTT,
// RecycleNTTAccumulator or FromNTT.
//
// An acquired value has exactly two legal fates:
//
//  1. it is handed back (directly or via defer) before — in source
//     order, on every path — the function can exit, or
//  2. it escapes: it is returned, stored into a field/slice/map,
//     captured by a closure, or passed to a function outside the
//     owning package's borrow-only API, any of which transfers
//     ownership to code the analyzer cannot see (Release methods,
//     output ciphertexts, and the like).
//
// A value that does neither is a pool leak; one whose release is
// skipped by an early return is the subtler variant the exit-path
// check exists for. The analysis is lexical (no CFG): a release covers
// an exit when it precedes it inside a block that also encloses the
// exit, which matches the structured straight-line scratch usage of
// the hot paths and never misfires on code that frees before any
// return. The `if err != nil` block that directly follows a fallible
// acquisition is not an exit the value must cover: it is nil there.
var PolyPool = &Analyzer{
	Name: "polypool",
	Doc:  "flags pool scratch (GetPoly polys, bfv NTT ciphertexts) not released on every exit path in the HE hot-path packages",
	Run:  runPolyPool,
}

// poolRole is what one call does to pooled values of a given kind.
type poolRole int

const (
	poolUnknown poolRole = iota // may retain its arguments: they escape
	poolAcquire                 // first result is a fresh pooled value
	poolRelease                 // first argument goes back to the pool
	poolBorrow                  // uses its arguments without retaining them
)

// poolKind describes one pooled resource: how calls act on it and how
// a leak is worded.
type poolKind struct {
	role     func(info *types.Info, call *ast.CallExpr) poolRole
	never    string // "%s ..." when no release exists
	leakyFmt string // "%s ... line %d" when an exit skips the release
}

var poolKinds = []poolKind{
	{ // ring scratch polynomials
		role: func(info *types.Info, call *ast.CallExpr) poolRole {
			name, isRing := calleeIsRingMethod(info, call)
			switch {
			case !isRing:
				return poolUnknown
			case name == "GetPoly", name == "ReduceWideAcc":
				// ReduceWideAcc hands its accumulator's low plane on as
				// an ordinary pool poly.
				return poolAcquire
			case name == "PutPoly":
				return poolRelease
			}
			// Other ring operations (NTT, MulCoeffs*, Automorphism, Poly
			// methods, …) borrow the poly without retaining it.
			return poolBorrow
		},
		never:    "%s is taken from the poly pool but never returned with PutPoly (and never escapes)",
		leakyFmt: "%s is not returned with PutPoly on every exit path (leaky exit at line %d)",
	},
	{ // ring lazy multiply-accumulators
		role: func(info *types.Info, call *ast.CallExpr) poolRole {
			name, isRing := calleeIsRingMethod(info, call)
			switch {
			case !isRing:
				return poolUnknown
			case name == "GetWideAcc":
				return poolAcquire
			case name == "PutWideAcc", name == "ReduceWideAcc":
				return poolRelease
			}
			return poolBorrow // MulCoeffsAddWide
		},
		never:    "%s is a wide accumulator from the poly pool that never reaches ReduceWideAcc or PutWideAcc (and never escapes)",
		leakyFmt: "%s does not reach ReduceWideAcc or PutWideAcc on every exit path (leaky exit at line %d)",
	},
	{ // bfv resident ciphertexts and accumulators
		role: func(info *types.Info, call *ast.CallExpr) poolRole {
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil || !pkgPathHasSuffix(fn.Pkg().Path(), "internal/bfv") {
				return poolUnknown
			}
			switch fn.Name() {
			case "ToNTT", "RotateRowsLazyNTT", "NewNTTAccumulator":
				return poolAcquire
			case "RecycleNTT", "RecycleNTTAccumulator", "FromNTT":
				return poolRelease
			case "MulPlainAcc":
				return poolBorrow
			}
			return poolUnknown
		},
		never:    "%s is an NTT ciphertext from the scratch pool that never reaches RecycleNTT or FromNTT (and never escapes)",
		leakyFmt: "%s does not reach RecycleNTT or FromNTT on every exit path (leaky exit at line %d)",
	},
}

func runPolyPool(pass *Pass) error {
	inScope := false
	for _, suffix := range poolPackages {
		if pkgPathHasSuffix(pass.Pkg.Path(), suffix) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			// Each function body — declarations and literals alike — is
			// its own analysis unit: a closure owns the polys it gets.
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				for _, kind := range poolKinds {
					analyzePoolUnit(pass, body, kind)
				}
			}
			return true
		})
	}
	return nil
}

// poolGet tracks one acquisition (v := r.GetPoly(), x, err :=
// ev.RotateRowsLazyNTT(...)) inside a unit. end is where the value
// starts to exist for the exit check: the end of the assignment, or of
// the `if err != nil` block that directly follows a fallible one.
type poolGet struct {
	obj      types.Object
	name     string
	pos      token.Pos
	end      token.Pos
	topLevel bool // acquired directly in the unit's body block
	escaped  bool
	puts     []poolPut
}

// poolPut is one release (possibly deferred) of a tracked value.
type poolPut struct {
	end   token.Pos
	block *ast.BlockStmt
}

func analyzePoolUnit(pass *Pass, body *ast.BlockStmt, kind poolKind) {
	info := pass.TypesInfo
	gets := map[types.Object]*poolGet{}

	// Pass 1: collect acquisitions (nested function literals are their
	// own units and are skipped here).
	var collect func(n ast.Node, blk *ast.BlockStmt)
	collect = func(n ast.Node, blk *ast.BlockStmt) {
		switch n := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.BlockStmt:
			for i, s := range n.List {
				collect(s, n)
				// x, err := acquire(); if err != nil { ... }: x is nil
				// inside that block, so its exits owe no release.
				as, ok := s.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != 2 || i+1 == len(n.List) {
					continue
				}
				g := gets[objOf(info, identOf(as.Lhs[0]))]
				if g == nil || g.end != as.End() {
					continue
				}
				if ifs, ok := n.List[i+1].(*ast.IfStmt); ok && isNilCheckOf(info, ifs.Cond, identOf(as.Lhs[1])) {
					g.end = ifs.End()
				}
			}
			return
		case *ast.AssignStmt:
			// v := acquire() pairs each value with its call; a fallible
			// acquisition yields (v, err) from a single call.
			if len(n.Lhs) == len(n.Rhs) || len(n.Rhs) == 1 {
				for i, rhs := range n.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || kind.role(info, call) != poolAcquire {
						continue
					}
					id, ok := n.Lhs[i].(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					if obj := objOf(info, id); obj != nil {
						gets[obj] = &poolGet{
							obj:      obj,
							name:     id.Name,
							pos:      id.Pos(),
							end:      n.End(),
							topLevel: blk == body,
						}
					}
				}
			}
		}
		walkChildren(n, func(c ast.Node) { collect(c, blk) })
	}
	collect(body, body)
	if len(gets) == 0 {
		return
	}

	// usesTracked reports whether any tracked poly is referenced inside
	// the subtree, marking each one found.
	markEscapes := func(n ast.Node) {
		ast.Inspect(n, func(c ast.Node) bool {
			if id, ok := c.(*ast.Ident); ok {
				if g := gets[objOf(info, id)]; g != nil && id.Pos() > g.end {
					g.escaped = true
				}
			}
			return true
		})
	}

	// Pass 2: classify uses — PutPoly calls, escapes, and exits.
	var exits []token.Pos
	var classify func(n ast.Node, blk *ast.BlockStmt)
	classify = func(n ast.Node, blk *ast.BlockStmt) {
		switch n := n.(type) {
		case *ast.FuncLit:
			// The closure may run later or not at all; a tracked poly
			// it references escapes the acquiring unit's discipline.
			markEscapes(n.Body)
			return
		case *ast.BlockStmt:
			for _, s := range n.List {
				classify(s, n)
			}
			return
		case *ast.ReturnStmt:
			exits = append(exits, n.Pos())
			for _, res := range n.Results {
				markEscapes(res)
			}
			return
		case *ast.CallExpr:
			switch kind.role(info, n) {
			case poolRelease:
				if len(n.Args) >= 1 {
					if g := gets[objOf(info, identOf(n.Args[0]))]; g != nil {
						g.puts = append(g.puts, poolPut{end: n.End(), block: blk})
						return
					}
				}
			case poolUnknown:
				// Assume the callee may retain its arguments.
				for _, arg := range n.Args {
					markEscapes(arg)
				}
			}
		case *ast.AssignStmt:
			// Storing a tracked poly anywhere (slice element, field,
			// fresh alias) transfers ownership. The acquisition itself
			// is immune: markEscapes ignores uses at or before it.
			for _, rhs := range n.Rhs {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && kind.role(info, call) != poolUnknown {
					continue // a release, a borrow or a fresh acquisition: the call case decides
				}
				markEscapes(rhs)
			}
		case *ast.CompositeLit:
			// Membership in an aggregate ([]*ring.Poly{t0, t1}, a struct
			// literal, …) hands the poly to whoever owns the aggregate —
			// often a range loop that puts each element back under
			// another name, which the per-object tracking cannot follow.
			markEscapes(n)
			return
		case *ast.SendStmt:
			markEscapes(n.Value)
		}
		walkChildren(n, func(c ast.Node) { classify(c, blk) })
	}
	classify(body, body)

	// A unit whose body does not end in a return can fall off the end:
	// that is one more exit every top-level acquisition must cover.
	canFallOff := len(body.List) == 0
	if !canFallOff {
		_, isReturn := body.List[len(body.List)-1].(*ast.ReturnStmt)
		canFallOff = !isReturn
	}
	if canFallOff {
		exits = append(exits, body.End())
	}

	for _, g := range gets {
		if g.escaped {
			continue
		}
		if len(g.puts) == 0 {
			pass.Reportf(g.pos, kind.never, g.name)
			continue
		}
		if !g.topLevel {
			// Conditional acquisitions get the weak check only: some
			// put exists, which the lexical exit model can't refine.
			continue
		}
		for _, exit := range exits {
			if exit <= g.end {
				continue
			}
			covered := false
			for _, p := range g.puts {
				if p.end < exit && p.block.Pos() <= exit && exit <= p.block.End() {
					covered = true
					break
				}
			}
			if !covered {
				pass.Reportf(g.pos, kind.leakyFmt, g.name, pass.Fset.Position(exit).Line)
				break
			}
		}
	}
}

// isNilCheckOf reports whether cond is `id != nil`.
func isNilCheckOf(info *types.Info, cond ast.Expr, id *ast.Ident) bool {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || b.Op != token.NEQ || id == nil {
		return false
	}
	x, y := identOf(b.X), identOf(b.Y)
	return x != nil && y != nil && y.Name == "nil" && objOf(info, x) == objOf(info, id)
}

// walkChildren applies fn to every immediate child node of n, using
// ast.Inspect's traversal with a depth guard.
func walkChildren(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c == nil {
			return false
		}
		fn(c)
		return false
	})
}
