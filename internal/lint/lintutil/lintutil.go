// Package lintutil holds the small type-query helpers shared by the
// smalint analyzers.
package lintutil

import (
	"go/ast"
	"go/types"
	"strings"
)

// Callee resolves the function or method object a call invokes, or nil
// for calls through function values, built-ins, and type conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// Named dereferences pointers and returns the named type of t, or nil.
func Named(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// RecvNamed returns the named receiver type of a method object, or nil
// for plain functions.
func RecvNamed(fn *types.Func) *types.Named {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return Named(sig.Recv().Type())
}

// PkgHasSuffix reports whether pkg's import path is suffix or ends in
// "/"+suffix — true for both the real module path ("sma/internal/exec")
// and the synthesized paths of analyzer testdata ("sand/internal/exec").
func PkgHasSuffix(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// TypeIs reports whether t (after dereferencing one pointer) is the named
// type name declared in a package whose path ends in pkgSuffix.
func TypeIs(t types.Type, pkgSuffix, name string) bool {
	n := Named(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && PkgHasSuffix(n.Obj().Pkg(), pkgSuffix)
}

// IsContext reports whether t is context.Context.
func IsContext(t types.Type) bool {
	n := Named(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == "Context" && n.Obj().Pkg().Path() == "context"
}

// Mentions reports whether node contains an identifier resolving to obj.
func Mentions(info *types.Info, node ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// IsIdentOf reports whether expr is (modulo parens and a leading &) the
// bare identifier resolving to obj.
func IsIdentOf(info *types.Info, expr ast.Expr, obj types.Object) bool {
	e := ast.Unparen(expr)
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = ast.Unparen(u.X)
	}
	id, ok := e.(*ast.Ident)
	return ok && info.Uses[id] == obj
}
