// Package rowsclose enforces the cursor-hygiene rule of the public API:
// a value obtained from QueryContext/Cursor-style calls — any call whose
// first result is a *Rows or *Cursor with a Close method — must be closed
// on every path, because an unclosed projection cursor holds the database
// read lock and blocks all DML and DDL indefinitely. An aggregation's
// cursor lets the lock go once its pipeline is open, but it too stays a
// live statement until closed: listed in the activity table, absent from
// the statistics.
//
// Accepted disciplines: `defer v.Close()`, an explicit Close on every
// path, returning the value to the caller, storing it into a struct
// field, or handing it to any function (e.g. sma.Collect(rows), which
// documents that it closes the rows). The `v, err := ...; if err != nil {
// return }` guard is understood: the failure arm carries no cursor.
package rowsclose

import (
	"go/ast"
	"go/types"

	"sma/internal/lint/analysis"
	"sma/internal/lint/flow"
	"sma/internal/lint/lintutil"
)

// Analyzer is the rowsclose check.
var Analyzer = &analysis.Analyzer{
	Name: "rowsclose",
	Doc: "callers of QueryContext/Cursor must Close the result on all " +
		"paths (a projection's cursor pins the database read lock until closed)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	isAcquire := func(call *ast.CallExpr) bool {
		fn := lintutil.Callee(pass.TypesInfo, call)
		if fn == nil {
			return false
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Results().Len() == 0 {
			return false
		}
		return isCursorType(sig.Results().At(0).Type())
	}
	isRelease := func(call *ast.CallExpr, v types.Object) bool {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" {
			return false
		}
		return lintutil.IsIdentOf(pass.TypesInfo, sel.X, v)
	}
	mode := flow.Mode{
		Kind:         "cursor",
		IsAcquire:    isAcquire,
		IsRelease:    isRelease,
		CallEscapes:  true,  // Collect(rows) and friends take ownership
		ReportDouble: false, // Close is idempotent
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				flow.Check(pass, fd.Body, mode)
			}
		}
	}
	return nil
}

// isCursorType reports whether t is a pointer to a named type called Rows
// or Cursor that has a Close method.
func isCursorType(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	name := n.Obj().Name()
	if name != "Rows" && name != "Cursor" {
		return false
	}
	for i := 0; i < n.NumMethods(); i++ {
		if n.Method(i).Name() == "Close" {
			return true
		}
	}
	return false
}
