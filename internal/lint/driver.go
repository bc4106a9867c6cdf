package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Run loads the packages matched by patterns (relative to dir) and
// applies every analyzer, returning the surviving diagnostics sorted by
// position. Suppressed findings are filtered; malformed suppressions
// are themselves diagnostics.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	l := NewLoader(dir)
	pkgs, err := l.Load(patterns...)
	if err != nil {
		return nil, err
	}
	return RunAnalyzers(l.Fset(), pkgs, analyzers)
}

// RunAnalyzers applies the analyzers to already-loaded packages.
func RunAnalyzers(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		sups, malformed := collectSuppressions(fset, pkg.Files)
		diags = append(diags, malformed...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				loader:    pkg.loader,
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
			for _, d := range pass.diags {
				if !sups.covers(d) {
					diags = append(diags, d)
				}
			}
		}
		// A suppression that silenced nothing is itself a finding: the
		// code it excused has moved or been fixed, and a stale excuse
		// will hide the next real finding that lands on its line. Only
		// suppressions for analyzers in this run are judged — a
		// single-analyzer fixture run cannot vouch for the others.
		for _, lines := range sups {
			for _, entries := range lines {
				for name, e := range entries {
					if ran[name] && !e.used {
						diags = append(diags, Diagnostic{
							Analyzer: "suppression",
							Pos:      e.pos,
							Message:  "unused suppression: " + name + " no longer reports here; delete this //lint:ignore-choco",
						})
					}
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

const suppressPrefix = "//lint:ignore-choco"

// supEntry is one recorded suppression; used flips when it actually
// silences a diagnostic, so stale entries can be reported.
type supEntry struct {
	pos  token.Position
	used bool
}

// suppressions records, per file and line, which analyzers are silenced
// there. A suppression comment covers findings on its own line (a
// trailing comment) and on the line directly below (a comment on its
// own line above the flagged statement).
type suppressions map[string]map[int]map[string]*supEntry

func (s suppressions) covers(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		if e := lines[line][d.Analyzer]; e != nil {
			e.used = true
			return true
		}
	}
	return false
}

// collectSuppressions scans every comment for the
// //lint:ignore-choco <analyzer> <reason> convention. A suppression
// missing its analyzer name or reason is reported instead of honored:
// an unexplained silence is worse than a finding.
func collectSuppressions(fset *token.FileSet, files []*ast.File) (suppressions, []Diagnostic) {
	sups := suppressions{}
	var malformed []Diagnostic
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, suppressPrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(c.Text, suppressPrefix))
				bad := func(msg string) {
					malformed = append(malformed, Diagnostic{
						Analyzer: "suppression",
						Pos:      pos,
						Message:  msg,
					})
				}
				if len(fields) == 0 || !known[fields[0]] {
					bad("malformed suppression: want `//lint:ignore-choco <analyzer> <reason>` with a known analyzer name")
					continue
				}
				if len(fields) < 2 {
					bad("suppression for " + fields[0] + " has no reason; explain why the finding is a false positive")
					continue
				}
				if sups[pos.Filename] == nil {
					sups[pos.Filename] = map[int]map[string]*supEntry{}
				}
				if sups[pos.Filename][pos.Line] == nil {
					sups[pos.Filename][pos.Line] = map[string]*supEntry{}
				}
				sups[pos.Filename][pos.Line][fields[0]] = &supEntry{pos: pos}
			}
		}
	}
	return sups, malformed
}
