package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path      string
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	// loader is the loader that type-checked the package: it resolves a
	// callee in any package it loaded to its declaration (funcDecl).
	loader *Loader
	// decls indexes the package's function declarations, built on first
	// use by funcDecl.
	decls map[*types.Func]*ast.FuncDecl
}

// funcDecl returns the declaration of fn and the package declaring it,
// when l type-checked that package from source (nil otherwise: an
// interface method, a package l never loaded).
func (l *Loader) funcDecl(fn *types.Func) (*ast.FuncDecl, *Package) {
	if l == nil || fn.Pkg() == nil {
		return nil, nil
	}
	pkg := l.pkgs[fn.Pkg().Path()]
	if pkg == nil {
		return nil, nil
	}
	if pkg.decls == nil {
		pkg.decls = map[*types.Func]*ast.FuncDecl{}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
						pkg.decls[obj] = fd
					}
				}
			}
		}
	}
	return pkg.decls[fn.Origin()], pkg
}

// listedPackage is the subset of `go list -json` output the loader
// needs. GoFiles is already filtered for build constraints and (since
// the loader pins CGO_ENABLED=0) contains no cgo files, so every
// listed file type-checks with pure go/types.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Loader loads and type-checks packages from source. Package discovery
// goes through `go list -deps -json`; type information is built with
// go/types, importing dependencies recursively from their source. An
// optional Overlay directory lets test fixtures shadow the module: an
// import path that exists as a directory under Overlay is parsed from
// there instead of being resolved by the go tool (the mechanism behind
// the analysistest-style fixtures in testdata/).
type Loader struct {
	// Dir is where `go list` runs; it must be inside the module.
	Dir string
	// Overlay optionally roots a fixture source tree (GOPATH-style:
	// Overlay/<import/path>/*.go).
	Overlay string
	// BuildTags selects additional build constraints, mirroring
	// `go build -tags`. They apply both to go-list discovery (the
	// chocodebug assertion layer, future arch-tagged asm stubs) and to
	// overlay fixtures, whose files are constraint-filtered the same
	// way the go tool would.
	BuildTags []string

	fset   *token.FileSet
	pkgs   map[string]*Package
	listed map[string]*listedPackage
	// loading guards against import cycles while recursing.
	loading map[string]bool
}

// NewLoader returns a loader rooted at dir.
func NewLoader(dir string) *Loader {
	return &Loader{
		Dir:     dir,
		fset:    token.NewFileSet(),
		pkgs:    map[string]*Package{},
		listed:  map[string]*listedPackage{},
		loading: map[string]bool{},
	}
}

// Fset exposes the loader's file set (shared by all loaded packages).
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Load resolves the patterns with the go tool and returns the matched
// packages, fully type-checked, sorted by import path. Dependencies
// are checked too but not returned.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if err := l.goList(patterns...); err != nil {
		return nil, err
	}
	var out []*Package
	for _, lp := range l.listed {
		if lp.DepOnly || lp.Name == "" {
			continue
		}
		pkg, err := l.importPath(lp.ImportPath)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadOverlay loads the fixture package at Overlay/<path> (plus any
// real packages it imports).
func (l *Loader) LoadOverlay(path string) (*Package, error) {
	if l.Overlay == "" {
		return nil, fmt.Errorf("lint: loader has no overlay root")
	}
	return l.importPath(path)
}

// goList runs `go list -e -deps -json` and merges the result into
// l.listed. Cgo is pinned off so every dependency — the standard
// library included — type-checks from pure Go source.
func (l *Loader) goList(patterns ...string) error {
	args := []string{"list", "-e", "-deps", "-json=ImportPath,Dir,Name,GoFiles,Imports,ImportMap,Standard,DepOnly,Error"}
	if len(l.BuildTags) > 0 {
		args = append(args, "-tags="+strings.Join(l.BuildTags, ","))
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if prev, ok := l.listed[lp.ImportPath]; ok {
			// Keep the non-DepOnly view if any pattern matched it directly.
			if prev.DepOnly && !lp.DepOnly {
				l.listed[lp.ImportPath] = &lp
			}
			continue
		}
		cp := lp
		l.listed[lp.ImportPath] = &cp
	}
	return nil
}

// importPath returns the type-checked package for an import path,
// loading it (and, recursively, its imports) on first use.
func (l *Loader) importPath(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	var (
		dir       string
		files     []string
		importMap map[string]string
	)
	if l.Overlay != "" {
		if d := filepath.Join(l.Overlay, filepath.FromSlash(path)); isDirWithGo(d) {
			dir = d
			ents, err := filepath.Glob(filepath.Join(d, "*.go"))
			if err != nil {
				return nil, err
			}
			// Apply build constraints exactly as the go tool would:
			// without this, a fixture carrying //go:build-tagged
			// variants of the same declaration would fail to
			// type-check with a spurious redeclaration error.
			ctxt := build.Default
			ctxt.BuildTags = l.BuildTags
			ctxt.CgoEnabled = false
			for _, f := range ents {
				match, err := ctxt.MatchFile(d, filepath.Base(f))
				if err != nil {
					return nil, fmt.Errorf("lint: matching %s: %v", f, err)
				}
				if match {
					files = append(files, f)
				}
			}
			if len(files) == 0 {
				return nil, fmt.Errorf("lint: overlay package %q has no Go files matching the build constraints", path)
			}
		}
	}
	if dir == "" {
		lp, ok := l.listed[path]
		if !ok {
			// A dependency outside the original pattern set (fixture
			// imports, lazily discovered): list it now.
			if err := l.goList(path); err != nil {
				return nil, err
			}
			lp, ok = l.listed[path]
			if !ok {
				return nil, fmt.Errorf("lint: package %q not found", path)
			}
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: package %q: %s", path, lp.Error.Err)
		}
		dir = lp.Dir
		for _, f := range lp.GoFiles {
			files = append(files, filepath.Join(lp.Dir, f))
		}
		importMap = lp.ImportMap
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: package %q has no Go files", path)
	}

	var syntax []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(l.fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %v", f, err)
		}
		syntax = append(syntax, af)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var softErrs []error
	conf := types.Config{
		Importer:    &pathImporter{l: l, importMap: importMap},
		FakeImportC: true,
		// Standard-library dependencies checked from source may trip
		// checks the go tool itself would not (e.g. linkname-backed
		// declarations); collect those softly. Errors in the module's
		// own packages are fatal below.
		Error: func(err error) { softErrs = append(softErrs, err) },
	}
	tpkg, err := conf.Check(path, l.fset, syntax, info)
	if err != nil && tpkg == nil {
		return nil, fmt.Errorf("lint: type-checking %q: %v", path, err)
	}
	if len(softErrs) > 0 {
		if lp := l.listed[path]; (lp == nil || !lp.Standard) && !strings.HasPrefix(path, "vendor/") {
			return nil, fmt.Errorf("lint: type-checking %q: %v", path, softErrs[0])
		}
	}
	pkg := &Package{Path: path, Files: syntax, Types: tpkg, TypesInfo: info, loader: l}
	l.pkgs[path] = pkg
	return pkg, nil
}

// pathImporter adapts Loader to go/types, resolving source-level
// import paths through the importing package's ImportMap (how the go
// tool maps e.g. golang.org/x/net/... to the GOROOT vendor copy).
type pathImporter struct {
	l         *Loader
	importMap map[string]string
}

func (pi *pathImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := pi.importMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	pkg, err := pi.l.importPath(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

func isDirWithGo(dir string) bool {
	ents, err := filepath.Glob(filepath.Join(dir, "*.go"))
	return err == nil && len(ents) > 0
}
