// Package lint is chocolint: a domain-specific static-analysis suite
// for the CHOCO codebase. It implements a self-contained subset of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer / Pass /
// Diagnostic) on top of the standard library alone — go/parser for
// syntax, go/types for semantics, and `go list -deps -json` for
// package discovery — so the linter needs no module dependencies.
//
// The analyzers encode invariants the Go type system cannot see:
//
//   - nttdomain:    ring.Poly domain (IsNTT) discipline
//   - polypool:     GetPoly scratch returned with PutPoly, wide
//     accumulators reduced or put back, and bfv resident ciphertexts and
//     rlwe inner-sum accumulators recycled or closed with FromNTT, on
//     every exit
//   - uncheckederr: dropped protocol frame-write and Close errors
//   - bigintloop:   per-iteration math/big arithmetic in hot-path loops,
//     and hot-path calls into functions that hold such loops
//
// An analyzer belongs here only while it reports some defect that the
// tests, go vet, the race detector and the chocodebug assertions all
// miss (DESIGN.md §6's keep rule); EXPERIMENTS.md records the seeded
// mutants that show it for each audited analyzer. Two properties that
// once had dataflow analyzers here are tests now (internal/testkit): no
// secret reaches a client's frames or text, and no serving-tier
// goroutine outlives its test.
//
// Findings can be suppressed, one line at a time, with a trailing or
// preceding comment of the form
//
//	//lint:ignore-choco <analyzer> <reason>
//
// The reason is mandatory: a suppression without one is itself
// reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one chocolint check, mirroring the shape of
// golang.org/x/tools/go/analysis.Analyzer so the suite can migrate to
// the upstream framework wholesale if the dependency ever lands.
type Analyzer struct {
	// Name is the analyzer identifier used in reports and in
	// //lint:ignore-choco suppressions.
	Name string
	// Doc is a one-line description shown by `chocolint -list`.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzed package to an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// loader resolves callees in other loaded packages to their
	// declarations, for analyzers that look one call level deep.
	loader *Loader
	diags  []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, ready to print as file:line:col.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// All returns the full chocolint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		NTTDomain,
		PolyPool,
		UncheckedErr,
		BigIntLoop,
	}
}
