package lint

import (
	"go/ast"
	"go/token"
)

// This file is the syntax half of the intra-procedural dataflow
// substrate (the solver lives in dataflow.go): a per-function
// control-flow graph over go/ast, built without any dependency beyond
// the standard library. It exists because the one-pass analyzers in
// this package deliberately track evidence linearly and forget it at
// the first join — which is the right trade for domain discipline, but
// cannot answer path questions like "does secret material reach this
// Send on *some* path" (secretflow) or "is this channel buffered on
// *every* path to this go statement" (goroleak). Those analyzers solve a
// forward fixpoint over this CFG instead.
//
// Granularity: a Block holds a sequence of *atoms* — simple statements
// and bare expressions that execute straight-line. Compound statements
// never appear as atoms; the builder decomposes them into their
// evaluated parts (an if contributes its init and cond, a switch its
// tag and per-case expression lists, a range its header) wired with
// edges. The two deliberate exceptions:
//
//   - a range header is wrapped in RangeHeader, a synthetic ast.Node
//     exposing only the parts evaluated at the loop head (X, Key,
//     Value), so transfer functions can model the per-iteration
//     assignment without re-walking the body;
//   - go/defer statements are atoms as-is: their argument lists are
//     evaluated at the statement, while a FuncLit body they carry runs
//     later and is analyzed as its own function unit. inspectAtom
//     therefore never descends into FuncLit bodies.
//
// Unreachable code (after return/branch) lands in blocks with no
// predecessors; the solver never assigns them a fact and analyzers
// skip them, so dead code cannot produce findings.

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry  *Block
	Exit   *Block // virtual: every return/fallthrough-off-the-end edges here
	Blocks []*Block
}

// Block is a straight-line sequence of atoms with its successor edges.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// RangeHeader is the synthetic atom for a range loop head: the ranged
// operand plus the per-iteration key/value targets. Tok distinguishes
// := definitions from = assignments.
type RangeHeader struct {
	X          ast.Expr
	Key, Value ast.Expr // may be nil
	Tok        token.Token
	Range      *ast.RangeStmt // the originating statement, for positions
}

func (h *RangeHeader) Pos() token.Pos { return h.Range.Pos() }
func (h *RangeHeader) End() token.Pos { return h.Range.X.End() }

// inspectAtom walks one CFG atom the way transfer functions need:
// RangeHeader visits only the header expressions, and nested function
// literals are visited as single nodes (their bodies run later, as
// separate analysis units). f follows the ast.Inspect contract.
func inspectAtom(atom ast.Node, f func(ast.Node) bool) {
	if h, ok := atom.(*RangeHeader); ok {
		for _, e := range []ast.Expr{h.Key, h.Value, h.X} {
			if e != nil {
				inspectAtom(e, f)
			}
		}
		return
	}
	ast.Inspect(atom, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if !f(n) {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit && n != atom {
			return false
		}
		return true
	})
}

// BuildCFG constructs the CFG of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: map[string]*Block{},
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	b.edge(b.cur, b.cfg.Exit)
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			b.edge(g.from, target)
		}
	}
	return b.cfg
}

type cfgBuilder struct {
	cfg *CFG
	cur *Block

	// targets is the stack of enclosing breakable/continuable
	// constructs, innermost last.
	targets []branchTarget
	// pendingLabel is the label immediately preceding a loop/switch/
	// select, consumed by the construct it labels.
	pendingLabel string
	labels       map[string]*Block
	gotos        []pendingGoto
	// fellThrough marks that the statement list just built ended in a
	// fallthrough; the switch builder wires the edge.
	fellThrough bool
}

type branchTarget struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

func (b *cfgBuilder) add(n ast.Node) { b.cur.Nodes = append(b.cur.Nodes, n) }

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		condB := b.cur
		thenB, after := b.newBlock(), b.newBlock()
		b.edge(condB, thenB)
		b.cur = thenB
		b.stmtList(s.Body.List)
		b.edge(b.cur, after)
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(condB, elseB)
			b.cur = elseB
			b.stmt(s.Else)
			b.edge(b.cur, after)
		} else {
			b.edge(condB, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		bodyB, after := b.newBlock(), b.newBlock()
		b.edge(head, bodyB)
		if s.Cond != nil {
			b.edge(head, after)
		}
		contTo := head
		var postB *Block
		if s.Post != nil {
			postB = b.newBlock()
			contTo = postB
		}
		b.targets = append(b.targets, branchTarget{label: label, breakTo: after, continueTo: contTo})
		b.cur = bodyB
		b.stmtList(s.Body.List)
		b.targets = b.targets[:len(b.targets)-1]
		if postB != nil {
			b.edge(b.cur, postB)
			b.cur = postB
			b.stmt(s.Post)
			b.edge(b.cur, head)
		} else {
			b.edge(b.cur, head)
		}
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		b.add(&RangeHeader{X: s.X, Key: s.Key, Value: s.Value, Tok: s.Tok, Range: s})
		bodyB, after := b.newBlock(), b.newBlock()
		b.edge(head, bodyB)
		b.edge(head, after)
		b.targets = append(b.targets, branchTarget{label: label, breakTo: after, continueTo: head})
		b.cur = bodyB
		b.stmtList(s.Body.List)
		b.targets = b.targets[:len(b.targets)-1]
		b.edge(b.cur, head)
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s.Body.List, label, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.caseClauses(s.Body.List, label, s.Assign)

	case *ast.SelectStmt:
		condB := b.cur
		after := b.newBlock()
		b.targets = append(b.targets, branchTarget{label: label, breakTo: after})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			clauseB := b.newBlock()
			b.edge(condB, clauseB)
			b.cur = clauseB
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, after)
		}
		b.targets = b.targets[:len(b.targets)-1]
		if len(s.Body.List) == 0 {
			// select{} blocks forever; treat as an exit.
			b.edge(condB, b.cfg.Exit)
		}
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = b.newBlock()

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(s.Label, false); t != nil {
				b.edge(b.cur, t.breakTo)
			}
			b.cur = b.newBlock()
		case token.CONTINUE:
			if t := b.findTarget(s.Label, true); t != nil {
				b.edge(b.cur, t.continueTo)
			}
			b.cur = b.newBlock()
		case token.GOTO:
			if s.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			}
			b.cur = b.newBlock()
		case token.FALLTHROUGH:
			b.fellThrough = true
		}

	case *ast.LabeledStmt:
		lb := b.newBlock()
		b.edge(b.cur, lb)
		b.cur = lb
		b.labels[s.Label.Name] = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isTerminalCall(call) {
			b.edge(b.cur, b.cfg.Exit)
			b.cur = b.newBlock()
		}

	case *ast.EmptyStmt:
		// nothing evaluated

	default:
		// Assign, Decl, IncDec, Send, Go, Defer, and anything new the
		// language grows: a straight-line atom.
		b.add(s)
	}
}

// caseClauses wires the shared switch/type-switch shape: the tag block
// fans out to each clause (and to after, unless a default exists);
// fallthrough chains a clause body to the next clause's body.
func (b *cfgBuilder) caseClauses(clauses []ast.Stmt, label string, assign ast.Stmt) {
	condB := b.cur
	after := b.newBlock()
	if assign != nil {
		// The x := y.(type) header is evaluated once, with the tag.
		b.add(assign)
		condB = b.cur
	}
	b.targets = append(b.targets, branchTarget{label: label, breakTo: after})
	bodyBlocks := make([]*Block, len(clauses))
	for i := range clauses {
		bodyBlocks[i] = b.newBlock()
	}
	hasDefault := false
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(condB, bodyBlocks[i])
		b.cur = bodyBlocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		b.fellThrough = false
		b.stmtList(cc.Body)
		if b.fellThrough && i+1 < len(clauses) {
			b.edge(b.cur, bodyBlocks[i+1])
			b.fellThrough = false
			b.cur = b.newBlock()
		}
		b.edge(b.cur, after)
	}
	b.targets = b.targets[:len(b.targets)-1]
	if !hasDefault {
		b.edge(condB, after)
	}
	b.cur = after
}

// findTarget resolves a break/continue to its construct, innermost
// first; continue skips switch/select targets.
func (b *cfgBuilder) findTarget(label *ast.Ident, isContinue bool) *branchTarget {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := &b.targets[i]
		if isContinue && t.continueTo == nil {
			continue
		}
		if label == nil || t.label == label.Name {
			return t
		}
	}
	return nil
}

// isTerminalCall reports calls that never return: builtin panic and the
// fatal exits used in this module (os.Exit, log.Fatal*). Keeping the
// list tight only costs precision, never soundness, for the may-
// analyses; for must-analyses a missed terminal call can only suppress
// facts, not invent them.
func isTerminalCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := ast.Unparen(fun.X).(*ast.Ident)
		if !ok {
			return false
		}
		switch {
		case pkg.Name == "os" && fun.Sel.Name == "Exit":
			return true
		case pkg.Name == "log" && (fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln"):
			return true
		}
	}
	return false
}
