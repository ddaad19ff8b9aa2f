// Package load turns Go package patterns into parsed, type-checked
// packages using only the standard library. It shells out to `go list
// -deps -json` for build-system truth (file sets, import maps, dependency
// order) and then type-checks every package in that order from source,
// including the standard-library closure — the offline equivalent of
// golang.org/x/tools/go/packages.Load with NeedTypes|NeedSyntax (and
// Config.Tests, as Loader.Tests).
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one loaded package with its syntax and type information.
type Package struct {
	// PkgPath is the package's import path.
	PkgPath string
	// Dir is the package's source directory.
	Dir string
	// GoFiles lists the package's compiled .go files (absolute paths,
	// tests excluded).
	GoFiles []string
	// Standard marks packages of the standard library.
	Standard bool
	// DepOnly marks packages that matched no pattern and were loaded only
	// as dependencies.
	DepOnly bool

	// Syntax holds the parsed files, parallel to GoFiles.
	Syntax []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// TypesInfo records type and object resolutions for Syntax.
	TypesInfo *types.Info

	importMap map[string]string
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	ForTest    string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// mapImporter resolves imports against already-checked packages, applying
// the importing package's ImportMap (vendored-path indirection) first.
type mapImporter struct {
	pkgs map[string]*types.Package
	// current is the ImportMap of the package being checked.
	current map[string]string
}

func (m *mapImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := m.current[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("load: package %q not loaded", path)
}

// Load lists patterns (e.g. "./...") in module directory dir and returns
// the matched packages and their full dependency closure, type-checked in
// dependency order. The returned slice preserves `go list -deps` order
// (dependencies first); callers typically filter on !Standard && !DepOnly.
func Load(fset *token.FileSet, dir string, patterns ...string) ([]*Package, error) {
	return (&Loader{Fset: fset}).Load(dir, patterns...)
}

// A Loader type-checks packages across Load calls: a package an earlier
// call checked is reused by import path, so loading a second module that
// depends on the first (bench/ on the root) checks only its own packages.
type Loader struct {
	Fset *token.FileSet
	// Tests adds the test variants of every matched package: "p [p.test]"
	// with p's _test.go files, and the external "p_test [p.test]".
	Tests bool

	checked map[string]*Package
	imp     *mapImporter
}

// Load is the package-level Load over the loader's file set, reusing
// what earlier calls checked.
func (l *Loader) Load(dir string, patterns ...string) ([]*Package, error) {
	args := []string{"list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard,DepOnly,ForTest,ImportMap,Error"}
	if l.Tests {
		args = append(args, "-test")
	}
	cmd := exec.Command("go", append(args, patterns...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		// A test binary's generated main lives in the build cache.
		if lp.ForTest == "" && strings.HasSuffix(lp.ImportPath, ".test") {
			continue
		}
		listed = append(listed, lp)
	}

	if l.imp == nil {
		l.checked = make(map[string]*Package, len(listed))
		l.imp = &mapImporter{pkgs: make(map[string]*types.Package, len(listed))}
	}
	var out2 []*Package
	for _, lp := range listed {
		p := &Package{
			PkgPath:   lp.ImportPath,
			Dir:       lp.Dir,
			Standard:  lp.Standard,
			DepOnly:   lp.DepOnly,
			importMap: lp.ImportMap,
		}
		if prev := l.checked[lp.ImportPath]; prev != nil {
			p.GoFiles, p.Syntax, p.Types, p.TypesInfo = prev.GoFiles, prev.Syntax, prev.Types, prev.TypesInfo
			out2 = append(out2, p)
			continue
		}
		if lp.ImportPath == "unsafe" {
			p.Types = types.Unsafe
		} else {
			for _, f := range lp.GoFiles {
				p.GoFiles = append(p.GoFiles, filepath.Join(lp.Dir, f))
			}
			if err := checkPackage(l.Fset, p, l.imp); err != nil {
				return nil, err
			}
		}
		l.imp.pkgs[p.PkgPath] = p.Types
		l.checked[p.PkgPath] = p
		out2 = append(out2, p)
	}
	return out2, nil
}

// ParseDir parses every non-test .go file directly under dir.
func ParseDir(fset *token.FileSet, dir string) ([]string, []*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".go" {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, path)
		files = append(files, f)
	}
	return names, files, nil
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// checkPackage type-checks p, filling Types and TypesInfo. Files are
// parsed from p.GoFiles unless p.Syntax is already populated.
func checkPackage(fset *token.FileSet, p *Package, imp *mapImporter) error {
	if p.Syntax == nil {
		for _, path := range p.GoFiles {
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return fmt.Errorf("load: %v", err)
			}
			p.Syntax = append(p.Syntax, f)
		}
	}
	imp.current = p.importMap
	info := NewInfo()
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tp, err := conf.Check(p.PkgPath, fset, p.Syntax, info)
	if err != nil {
		return fmt.Errorf("load: type-checking %s: %v", p.PkgPath, err)
	}
	p.Types = tp
	p.TypesInfo = info
	return nil
}
