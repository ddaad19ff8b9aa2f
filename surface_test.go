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

	"sma/internal/lint/load"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current code")

const (
	// surfaceGolden lists every exported identifier of the public packages.
	surfaceGolden = "testdata/api.golden"
	// unreachedGolden lists the exported names of internal/ that no
	// production package uses, each with the packages that still do.
	unreachedGolden = "testdata/unreached.golden"
)

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
	if diff := goldenDiff(t, surfaceGolden, lines); diff != nil {
		for _, l := range diff.added {
			t.Errorf("added to the public surface: %s", l)
		}
		for _, l := range diff.removed {
			t.Errorf("removed from the public surface: %s", l)
		}
		t.Errorf("the public surface differs from %s; if the change is meant, run go test -run TestPublicSurface -update .", surfaceGolden)
	}
}

// TestUnreachedNames holds to a checked-in golden file the exported names
// of internal/ that no production package refers to. Regenerate it with
//
//	go test -run TestUnreachedNames -update .
//
// The names scanned are the exported functions, types, variables and
// constants of internal/* but lint, testutil, experiments, btree and
// cube, and the exported methods of their exported types whose name no
// interface of the program declares (standard library included): a
// method such as String or Close may be reached through an interface
// the scan cannot follow. A name is reached when a non-test file of a
// production package refers to it, its own package included. A type's own
// declarations (its type spec, its methods and its constructors, the
// functions of its package that return it) do not reach it; a use of one
// of its methods or constructors anywhere else does. Production
// packages are sma, sma/client, cmd/* but smabench, and internal/* but
// experiments, btree, cube, lint and testutil. Each golden line names one
// unreached name and the packages that still use it: non-production
// packages, sma/bench (a module of its own), and "(tests)" for a
// package's test files.
func TestUnreachedNames(t *testing.T) {
	lines := unreachedNames(t)
	diff := goldenDiff(t, unreachedGolden, lines)
	if diff == nil {
		return
	}
	was := make(map[string]string) // golden lines only the file has, by name
	for _, l := range diff.removed {
		n, _, _ := strings.Cut(l, ": ")
		was[n] = l
	}
	for _, l := range diff.added {
		n, users, _ := strings.Cut(l, ": ")
		if old, ok := was[n]; ok {
			t.Errorf("the users of %s changed: %q is now %q", n, old, l)
			delete(was, n)
		} else {
			t.Errorf("no production code reaches %s (users: %s): give it a production caller, move it into an export_test.go, or delete it", n, users)
		}
	}
	for _, l := range diff.removed {
		if n, _, _ := strings.Cut(l, ": "); was[n] != "" {
			t.Errorf("%s is reached or gone: remove its line from %s", n, unreachedGolden)
		}
	}
	t.Errorf("the unreached names differ from %s; once the change is meant, run go test -run TestUnreachedNames -update .", unreachedGolden)
}

// unreachedNames type-checks the module, its tests and the benchmark
// module, and returns one line per unreached name, sorted:
//
//	core.(*SMA).OnAppend: sma/bench, sma/internal/core (tests)
func unreachedNames(t *testing.T) []string {
	t.Helper()
	l := &load.Loader{Fset: token.NewFileSet()}
	prog, err := l.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	l.Tests = true
	tests, err := l.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := l.Load("bench", "./...")
	if err != nil {
		t.Fatal(err)
	}

	declared := make(map[string]bool) // method names some interface declares
	for _, p := range prog {
		if p.TypesInfo == nil { // unsafe
			continue
		}
		for _, tv := range p.TypesInfo.Types {
			addInterfaceMethods(declared, tv.Type)
		}
		for _, obj := range p.TypesInfo.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				addInterfaceMethods(declared, tn.Type())
			}
		}
	}
	scanned := make(map[string]bool)
	for _, p := range prog {
		if !scannedPackage(p.PkgPath) {
			continue
		}
		scope := p.Types.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if !obj.Exported() {
				continue
			}
			scanned[nameKey(obj)] = true
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					for i := range named.NumMethods() {
						if m := named.Method(i); m.Exported() && !declared[m.Name()] {
							scanned[nameKey(m)] = true
						}
					}
				}
			}
		}
	}

	reached := make(map[string]bool)
	users := make(map[string]map[string]bool)
	for _, p := range slices.Concat(prog, tests, bench) {
		if p.Standard || p.DepOnly && !strings.HasPrefix(p.PkgPath, "sma/bench") {
			continue
		}
		path, _, _ := strings.Cut(p.PkgPath, " ")
		for _, f := range p.Syntax {
			user := path // "" for a production file
			switch {
			case strings.HasSuffix(l.Fset.File(f.Pos()).Name(), "_test.go"):
				user = strings.TrimSuffix(path, "_test") + " (tests)"
			case productionPackage(path):
				user = ""
			}
			use := func(key string) {
				switch {
				case !scanned[key]:
				case user == "":
					reached[key] = true
				default:
					if users[key] == nil {
						users[key] = make(map[string]bool)
					}
					users[key][user] = true
				}
			}
			for _, d := range f.Decls {
				ownedParts(p.TypesInfo, d, func(part ast.Node, own []*types.TypeName) {
					ast.Inspect(part, func(n ast.Node) bool {
						id, ok := n.(*ast.Ident)
						if !ok || p.TypesInfo.Uses[id] == nil {
							return true
						}
						obj := p.TypesInfo.Uses[id]
						if _, ok := obj.(*types.TypeName); !ok {
							use(nameKey(obj))
						}
						for _, tn := range ownerTypes(obj) {
							if !slices.Contains(own, tn) {
								use(nameKey(tn))
							}
						}
						return true
					})
				})
			}
		}
	}
	var lines []string
	for key := range scanned {
		if reached[key] {
			continue
		}
		var us []string
		for u := range users[key] {
			us = append(us, u)
		}
		slices.Sort(us)
		if us == nil {
			us = []string{"no user"}
		}
		lines = append(lines, key+": "+strings.Join(us, ", "))
	}
	slices.Sort(lines)
	return lines
}

// ownedParts calls visit with each part of the top-level declaration d and
// the types the part belongs to: a type spec belongs to its type, a method
// to its receiver's type, and a function to the types of its own package
// it returns (it is their constructor). A use of a type inside a part that
// belongs to it does not reach it.
func ownedParts(info *types.Info, d ast.Decl, visit func(ast.Node, []*types.TypeName)) {
	switch d := d.(type) {
	case *ast.FuncDecl:
		visit(d, ownerTypes(info.Defs[d.Name]))
	case *ast.GenDecl:
		if d.Tok != token.TYPE {
			visit(d, nil)
			return
		}
		for _, spec := range d.Specs {
			ts := spec.(*ast.TypeSpec)
			visit(ts, ownerTypes(info.Defs[ts.Name]))
		}
	}
}

// ownerTypes returns the types a use of obj reaches: a type itself, a
// method's receiver type, or the types of its own package a function
// returns. Any other object reaches none.
func ownerTypes(obj types.Object) []*types.TypeName {
	named := func(t types.Type) *types.TypeName {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Origin().Obj()
		}
		return nil
	}
	switch obj := obj.(type) {
	case *types.TypeName:
		return []*types.TypeName{obj}
	case *types.Func:
		sig := obj.Origin().Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil {
			if tn := named(recv.Type()); tn != nil {
				return []*types.TypeName{tn}
			}
			return nil
		}
		var out []*types.TypeName
		for i := range sig.Results().Len() {
			if tn := named(sig.Results().At(i).Type()); tn != nil && tn.Pkg() == obj.Pkg() {
				out = append(out, tn)
			}
		}
		return out
	}
	return nil
}

// nameKey names a package-level object or method of internal/ the way the
// golden does, the package path short of sma/internal/: exec.CollectRows,
// core.(*SMA).OnAppend. A test variant's objects get their package's key.
// Any other object (a field, a local) gets "".
func nameKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	path, _, _ := strings.Cut(obj.Pkg().Path(), " ")
	short, ok := strings.CutPrefix(path, "sma/internal/")
	if !ok {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			typ, star := recv.Type(), ""
			if ptr, ok := typ.(*types.Pointer); ok {
				typ, star = ptr.Elem(), "*"
			}
			named, ok := typ.(*types.Named)
			if !ok { // an interface's method
				return ""
			}
			return short + ".(" + star + named.Obj().Name() + ")." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return short + "." + obj.Name()
}

// addInterfaceMethods adds the method names of typ to names when typ is an
// interface.
func addInterfaceMethods(names map[string]bool, typ types.Type) {
	if typ == nil {
		return
	}
	if it, ok := typ.Underlying().(*types.Interface); ok {
		for i := range it.NumMethods() {
			names[it.Method(i).Name()] = true
		}
	}
}

// scannedPackage reports whether TestUnreachedNames scans the exported
// names of the package at path: internal/* but the tools, the test support,
// and the paper's experiments and their baselines.
func scannedPackage(path string) bool {
	rest, ok := strings.CutPrefix(path, "sma/internal/")
	top, _, _ := strings.Cut(rest, "/")
	return ok && !slices.Contains([]string{"lint", "testutil", "experiments", "btree", "cube"}, top)
}

// productionPackage reports whether a non-test file of the package at
// path reaches what it refers to.
func productionPackage(path string) bool {
	switch {
	case path == "sma", path == "sma/client":
		return true
	case strings.HasPrefix(path, "sma/cmd/"):
		return path != "sma/cmd/smabench"
	}
	return scannedPackage(path)
}

// goldenDiff compares lines with the golden file at path, or rewrites the
// file under -update. It returns nil when they agree.
func goldenDiff(t *testing.T, path string, lines []string) *lineDiff {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return nil
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return nil
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	d := &lineDiff{}
	for _, l := range lines {
		if !slices.Contains(wantLines, l) {
			d.added = append(d.added, l)
		}
	}
	for _, l := range wantLines {
		if !slices.Contains(lines, l) {
			d.removed = append(d.removed, l)
		}
	}
	return d
}

// lineDiff is the lines only the code has (added) and only the golden
// file has (removed).
type lineDiff struct{ added, removed []string }

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
