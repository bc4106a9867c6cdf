package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// SecretFlow enforces the paper's core threat-model invariant: the
// client's secret key material never leaves the device. Only
// ciphertexts and public evaluation keys may cross the wire or appear
// in logs.
//
// It is the first analyzer built on the CFG/dataflow substrate
// (cfg.go, dataflow.go): a per-function forward taint analysis with a
// may-join (union), so a leak on *any* path is reported.
//
// Sources — expressions are tainted when they are, or flow from:
//   - rlwe.SecretKey values, under that name or as bfv.SecretKey /
//     ckks.SecretKey (and anything selected from them, e.g. sk.ValueQ);
//   - rlwe / bfv / ckks KeyGenerator values (they hold the key
//     seed and can re-derive the secret key);
//   - [32]byte identifiers whose name contains "seed" (the module's
//     key/PRF seeds are all this shape);
//   - out-slices filled by sampling.Source.Ternary / TernarySigned
//     (freshly sampled ternary secrets) and Gaussian / GaussianSigned
//     (encryption errors: an error and its ciphertext's c0 give a·s).
//
// Sanitizers — calls whose results are public by construction:
//   - KeyGenerator.Gen* except GenSecretKey (public, relinearization,
//     Galois/rotation keys are published to the server by design);
//   - Encrypt* / Decrypt* / Decode* methods in internal/rlwe,
//     internal/bfv and internal/ckks (ciphertexts are semantically secure; decryption
//     and decode outputs are the client's own application data, not
//     key material).
//
// Sinks — where tainted arguments are reported:
//   - any fmt or log package call (error strings and logs persist and
//     travel);
//   - Send/Write/WriteFrame methods on types from net,
//     internal/protocol, internal/serve, internal/fabric (the wire);
//   - unresolvable calls named Logf/logf (logger function values).
//
// The analysis is intra-procedural: passing secret material to an
// unknown function does not report, but the call's pointer-shaped
// arguments become tainted, so a leak through a local helper that the
// CFG can see is still caught.
var SecretFlow = &Analyzer{
	Name: "secretflow",
	Doc:  "secret key material (SecretKey, KeyGenerator, seeds) must not reach wire or log sinks",
	Run:  runSecretFlow,
}

func runSecretFlow(pass *Pass) error {
	for _, file := range pass.Files {
		for _, body := range functionBodies(file) {
			secretFlowFunc(pass, body)
		}
	}
	return nil
}

// functionBodies enumerates every function unit in the file: declared
// functions and all function literals (each literal is analyzed as its
// own unit — the CFG of the enclosing function treats it as opaque).
func functionBodies(file *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, n.Body)
			}
		case *ast.FuncLit:
			out = append(out, n.Body)
		}
		return true
	})
	return out
}

// taintFact is the may-lattice: the set of local objects currently
// holding secret material. Type-based sources (SecretKey etc.) are
// recomputed per expression and need no entry here.
type taintFact map[types.Object]bool

func (f taintFact) Clone() FlowFact {
	c := make(taintFact, len(f))
	for k := range f {
		c[k] = true
	}
	return c
}

func (f taintFact) Join(other FlowFact) bool {
	changed := false
	for k := range other.(taintFact) {
		if !f[k] {
			f[k] = true
			changed = true
		}
	}
	return changed
}

func secretFlowFunc(pass *Pass, body *ast.BlockStmt) {
	cfg := BuildCFG(body)
	sf := &secretFlow{pass: pass, info: pass.TypesInfo}

	facts := ForwardSolve(cfg, taintFact{}, func(b *Block, in FlowFact) FlowFact {
		return sf.transfer(b, in.(taintFact), false)
	})
	// Report pass: replay the transfer over reachable blocks with
	// reporting on, so each sink sees the fixpoint entry fact.
	for _, b := range cfg.Blocks {
		if facts[b.Index] == nil {
			continue // unreachable
		}
		sf.transfer(b, facts[b.Index].Clone().(taintFact), true)
	}
}

type secretFlow struct {
	pass *Pass
	info *types.Info
}

// transfer interprets one block's atoms over f, reporting sink hits
// when report is set. It returns the mutated fact.
func (sf *secretFlow) transfer(b *Block, f taintFact, report bool) taintFact {
	for _, atom := range b.Nodes {
		switch n := atom.(type) {
		case *ast.AssignStmt:
			sf.visitCalls(n, f, report)
			sf.assign(n, f)
		case *ast.DeclStmt:
			sf.visitCalls(n, f, report)
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						var rhs ast.Expr
						if len(vs.Values) == len(vs.Names) {
							rhs = vs.Values[i]
						} else if len(vs.Values) == 1 {
							rhs = vs.Values[0]
						}
						if rhs != nil && sf.exprTaint(f, rhs) {
							if o := objOf(sf.info, name); o != nil {
								f[o] = true
							}
						}
					}
				}
			}
		case *RangeHeader:
			if sf.exprTaint(f, n.X) {
				for _, lhs := range []ast.Expr{n.Key, n.Value} {
					if lhs == nil {
						continue
					}
					if o := objOf(sf.info, identOf(lhs)); o != nil {
						f[o] = true
					}
				}
			}
		default:
			if node, ok := atom.(ast.Node); ok {
				sf.visitCalls(node, f, report)
			}
		}
	}
	return f
}

// assign propagates taint through one assignment statement.
func (sf *secretFlow) assign(as *ast.AssignStmt, f taintFact) {
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// x, y := f(...): all LHS share the single RHS verdict.
		tainted := sf.exprTaint(f, as.Rhs[0])
		for _, lhs := range as.Lhs {
			sf.setLHS(lhs, tainted, f)
		}
		return
	}
	for i, lhs := range as.Lhs {
		if i < len(as.Rhs) {
			sf.setLHS(lhs, sf.exprTaint(f, as.Rhs[i]), f)
		}
	}
}

func (sf *secretFlow) setLHS(lhs ast.Expr, tainted bool, f taintFact) {
	id := identOf(lhs)
	o := objOf(sf.info, id)
	if o == nil {
		return
	}
	if tainted {
		// Error values are never treated as secret: every fallible call
		// downstream of key material returns one, and error strings are
		// constructed from messages, not key bytes. (fmt.Errorf with a
		// secret *argument* is still a sink hit.)
		if types.Identical(o.Type(), types.Universe.Lookup("error").Type()) {
			return
		}
		f[o] = true
	} else if id != nil && ast.Unparen(lhs) == ast.Expr(id) {
		// Direct overwrite of the whole variable clears it; writes
		// through selectors/indices do not.
		delete(f, o)
	}
}

// visitCalls walks one atom, and for each call: reports tainted
// arguments at sinks, and models side effects (source out-params,
// unknown callees tainting pointer-shaped arguments).
func (sf *secretFlow) visitCalls(atom ast.Node, f taintFact, report bool) {
	inspectAtom(atom, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(sf.info, call)

		if report {
			if kind, sinkName, ok := sf.sinkOf(call, fn); ok {
				for _, arg := range call.Args {
					if sf.exprTaint(f, arg) {
						sf.pass.Reportf(arg.Pos(),
							"secret material reaches %s sink %s", kind, sinkName)
					}
				}
			}
		}

		// Side effect on the fact: the ternary and Gaussian samplers
		// fill their out-slice with fresh secret coefficients. (Unknown
		// callees get no argument side effects — tainting pointer args
		// of every call that sees secret material poisons constructor
		// idioms like NewDecryptor(ctx, sk) through the shared ctx.)
		if isSecretSampler(fn) && len(call.Args) > 0 {
			if o := objOf(sf.info, identOf(call.Args[0])); o != nil {
				f[o] = true
			}
		}
		return true
	})
}

// exprTaint reports whether e evaluates to secret material under fact
// f: by type (SecretKey / KeyGenerator / seed identifiers), by tracked
// flow, or compositionally through the expression.
func (sf *secretFlow) exprTaint(f taintFact, e ast.Expr) bool {
	e = ast.Unparen(e)
	if t := sf.info.TypeOf(e); t != nil && isSecretType(t) {
		return true
	}
	switch e := e.(type) {
	case *ast.Ident:
		o := objOf(sf.info, e)
		if o == nil {
			return false
		}
		return f[o] || isSeedObj(o)
	case *ast.SelectorExpr:
		// A field or method value of a tainted base is tainted
		// (sk.ValueQ, kg.seed).
		return sf.exprTaint(f, e.X)
	case *ast.CallExpr:
		return sf.callTaint(f, e)
	case *ast.UnaryExpr:
		return sf.exprTaint(f, e.X)
	case *ast.StarExpr:
		return sf.exprTaint(f, e.X)
	case *ast.BinaryExpr:
		return sf.exprTaint(f, e.X) || sf.exprTaint(f, e.Y)
	case *ast.IndexExpr:
		return sf.exprTaint(f, e.X)
	case *ast.IndexListExpr:
		return sf.exprTaint(f, e.X)
	case *ast.SliceExpr:
		return sf.exprTaint(f, e.X)
	case *ast.TypeAssertExpr:
		return sf.exprTaint(f, e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if sf.exprTaint(f, el) {
				return true
			}
		}
	}
	return false
}

// callTaint decides whether a call's result carries secret material.
//
// Precision choices, tuned on the real tree:
//   - a method on a receiver that is secret *by type* (SecretKey,
//     KeyGenerator) returns secret material (sk.Marshal, kg.GenSecret-
//     Key); a receiver that is merely flow-tainted (a client or
//     encryptor built from a seed) is an object whose methods ARE its
//     public API — their results are clean;
//   - a call returning a basic numeric or bool (NoiseBudget, lengths,
//     counters) is clean: these scalars are the paper's published
//     diagnostics, not key material;
//   - otherwise, tainted argument in → tainted result out.
func (sf *secretFlow) callTaint(f taintFact, call *ast.CallExpr) bool {
	fn := calleeFunc(sf.info, call)
	if isSanitizer(fn) {
		return false
	}
	// A conversion (byte(c), uint64(x)) is an identity on the data — it
	// keeps the operand's taint. The basic-scalar exemption below is
	// only for genuine calls, which *compute* their scalar.
	if tv, ok := sf.info.Types[call.Fun]; !ok || !tv.IsType() {
		if t := sf.info.TypeOf(call); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&(types.IsNumeric|types.IsBoolean) != 0 {
				return false
			}
		}
	}
	if recv := callReceiver(call); recv != nil {
		if t := sf.info.TypeOf(recv); t != nil && isSecretType(t) {
			return true
		}
	}
	for _, arg := range call.Args {
		if sf.exprTaint(f, arg) {
			return true
		}
	}
	return false
}

// sinkOf classifies a call as a reporting sink.
func (sf *secretFlow) sinkOf(call *ast.CallExpr, fn *types.Func) (kind, name string, ok bool) {
	if fn != nil {
		if pkg := fn.Pkg(); pkg != nil {
			switch pkg.Path() {
			case "fmt":
				return "format", "fmt." + fn.Name(), true
			case "log":
				return "log", "log." + fn.Name(), true
			}
		}
		if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
			switch fn.Name() {
			case "Send", "Write", "WriteFrame":
				if p := fn.Pkg(); p != nil && isWirePkg(p.Path()) {
					recv := p.Name()
					if n, ok := deref(sig.Recv().Type()).(*types.Named); ok && n.Obj() != nil {
						recv += "." + n.Obj().Name()
					}
					return "wire", recv + "." + fn.Name(), true
				}
			}
		}
		return "", "", false
	}
	// Unresolvable callee (function-typed variable): flag logger
	// function values by conventional name.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "Logf" || fun.Name == "logf" {
			return "log", fun.Name, true
		}
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Logf" || fun.Sel.Name == "logf" {
			return "log", fun.Sel.Name, true
		}
	}
	return "", "", false
}

// isWirePkg reports whether a package path belongs to the wire layer:
// net, internal/protocol, internal/serve, or internal/fabric. Scoping
// sinks by the method's package (rather than its receiver's kind)
// catches interface methods like net.Conn.Write uniformly.
func isWirePkg(p string) bool {
	return p == "net" ||
		pkgPathHasSuffix(p, "internal/protocol") ||
		pkgPathHasSuffix(p, "internal/serve") ||
		pkgPathHasSuffix(p, "internal/fabric")
}

// schemePackages are the package-path suffixes that define secret key
// material and the sanitizing client operations: the shared RLWE core,
// whose SecretKey and KeyGenerator the two schemes alias and embed, and
// the schemes themselves.
var schemePackages = []string{"internal/rlwe", "internal/bfv", "internal/ckks"}

// isSecretType reports types that are secret by construction.
func isSecretType(t types.Type) bool {
	for _, pkg := range schemePackages {
		if namedFrom(t, pkg, "SecretKey") || namedFrom(t, pkg, "KeyGenerator") {
			return true
		}
	}
	return false
}

// isSeedObj reports [32]byte variables whose name marks them as seeds.
func isSeedObj(o types.Object) bool {
	if o == nil || !strings.Contains(strings.ToLower(o.Name()), "seed") {
		return false
	}
	arr, ok := o.Type().(*types.Array)
	if !ok || arr.Len() != 32 {
		return false
	}
	b, ok := arr.Elem().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// isSanitizer reports calls whose outputs are public by construction.
func isSanitizer(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	// The synthetic-data generators consume a seed to produce the
	// public benchmark dataset; their outputs are meant to be shown.
	if pkgPathHasSuffix(p, "internal/nn") && strings.HasPrefix(fn.Name(), "Synthesize") {
		return true
	}
	if !slices.ContainsFunc(schemePackages, func(pkg string) bool { return pkgPathHasSuffix(p, pkg) }) {
		return false
	}
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		rt := deref(sig.Recv().Type())
		if n, ok := rt.(*types.Named); ok && n.Obj().Name() == "KeyGenerator" {
			return strings.HasPrefix(name, "Gen") && name != "GenSecretKey"
		}
	}
	return strings.HasPrefix(name, "Encrypt") ||
		strings.HasPrefix(name, "Decrypt") ||
		strings.HasPrefix(name, "Decode")
}

// isSecretSampler reports the sampling.Source methods that fill their
// first argument with secret coefficients: Ternary/TernarySigned
// (secrets) and Gaussian/GaussianSigned (errors).
func isSecretSampler(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || !pkgPathHasSuffix(fn.Pkg().Path(), "internal/sampling") {
		return false
	}
	switch fn.Name() {
	case "Ternary", "TernarySigned", "Gaussian", "GaussianSigned":
		return true
	}
	return false
}

// callReceiver returns the receiver expression of a method call, or
// nil for package-level calls.
func callReceiver(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}
