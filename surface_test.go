package sma

import (
	"flag"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite "+surfaceGolden+" from the current public surface")

// surfaceGolden lists every exported identifier of the public packages.
const surfaceGolden = "testdata/api.golden"

// TestPublicSurface holds the exported identifiers of sma and sma/client —
// constants, variables, functions, types, struct fields and methods — to
// the checked-in golden file, so a change to either public package shows
// in the same diff as a change to that file. Regenerate it with
//
//	go test -run TestPublicSurface -update .
func TestPublicSurface(t *testing.T) {
	var lines []string
	for _, pkg := range []struct{ dir, path string }{{".", "sma"}, {"client", "sma/client"}} {
		lines = append(lines, "package "+pkg.path)
		lines = append(lines, surface(t, pkg.dir, pkg.path)...)
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(surfaceGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(surfaceGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(surfaceGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for _, l := range lines {
		if !slices.Contains(wantLines, l) {
			t.Errorf("added to the public surface: %s", l)
		}
	}
	for _, l := range wantLines {
		if !slices.Contains(lines, l) {
			t.Errorf("removed from the public surface: %s", l)
		}
	}
	t.Errorf("the public surface differs from %s; if the change is meant, run go test -run TestPublicSurface -update .", surfaceGolden)
}

// surface lists the exported identifiers of the package in dir, one per
// line, sorted.
func surface(t *testing.T, dir, path string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	values := func(vals []*doc.Value) {
		for _, v := range vals {
			for _, spec := range v.Decl.Specs {
				for _, n := range spec.(*ast.ValueSpec).Names {
					if n.IsExported() {
						out = append(out, v.Decl.Tok.String()+" "+n.Name)
					}
				}
			}
		}
	}
	funcs := func(fns []*doc.Func) {
		for _, f := range fns {
			sig := strings.TrimPrefix(types.ExprString(f.Decl.Type), "func")
			if f.Decl.Recv != nil {
				out = append(out, "func ("+types.ExprString(f.Decl.Recv.List[0].Type)+") "+f.Name+sig)
			} else {
				out = append(out, "func "+f.Name+sig)
			}
		}
	}
	values(pkg.Consts)
	values(pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		out = append(out, typeLines(typ)...)
		values(typ.Consts)
		values(typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
	}
	slices.Sort(out)
	return out
}

// typeLines renders one exported type: an alias or defined type on one
// line, a struct or interface as a line plus one per exported field or
// method.
func typeLines(typ *doc.Type) []string {
	var spec *ast.TypeSpec
	for _, s := range typ.Decl.Specs {
		if ts := s.(*ast.TypeSpec); ts.Name.Name == typ.Name {
			spec = ts
		}
	}
	head := "type " + typ.Name
	if spec.Assign.IsValid() {
		return []string{head + " = " + types.ExprString(spec.Type)}
	}
	var fields *ast.FieldList
	switch st := spec.Type.(type) {
	case *ast.StructType:
		head, fields = head+" struct", st.Fields
	case *ast.InterfaceType:
		head, fields = head+" interface", st.Methods
	default:
		return []string{head + " " + types.ExprString(spec.Type)}
	}
	out := []string{head}
	for _, f := range fields.List {
		ft := types.ExprString(f.Type)
		if len(f.Names) == 0 { // embedded
			out = append(out, "field "+typ.Name+"."+ft)
		}
		for _, n := range f.Names {
			if n.IsExported() {
				out = append(out, "field "+typ.Name+"."+n.Name+" "+ft)
			}
		}
	}
	return out
}
