// Package ctxscan enforces the engine's cancellation discipline: any loop
// in the query-execution layers that performs storage I/O — reading heap
// pages, scanning buckets, appending or deleting records — must observe
// query cancellation once per iteration, either directly (ctx.Err(),
// <-ctx.Done()) or by handing the context to a callee that takes one.
//
// The storage layer owns cancellation only where a caller hands it a
// context: there, a page-I/O loop in a function that takes a context must
// check it. That is the scans' page loop, PageStream.Read, which checks the
// statement's context before every page; an execution-layer loop that
// pulls pages through it must hand it a context it has in reach.
//
// The invariant comes from the engine's locking design: every scan runs
// under the database read or write lock — a query's from its planning
// until its pipeline is open (an aggregation) or its stream ends (a
// projection), DML's for the whole statement — so a scan that ignores its
// context pins the lock until it finishes the relation. Every
// bucket/page loop checking ctx is what makes client disconnects and
// server drains bounded-latency operations.
package ctxscan

import (
	"go/ast"
	"go/token"
	"go/types"

	"sma/internal/lint/analysis"
	"sma/internal/lint/lintutil"
)

// Analyzer is the ctxscan check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxscan",
	Doc: "loops over buckets/pages/batches in the execution layers, and " +
		"storage page loops handed a context, must check ctx.Err()/ctx.Done() " +
		"(or hand the context to a callee) every iteration",
	Run: run,
}

// scopeSuffixes are the package-path suffixes where every loop is checked.
var scopeSuffixes = []string{"internal/exec", "internal/engine", "internal/parallel"}

// storageSuffix is the storage layer, checked in functions that take a
// context.
const storageSuffix = "internal/storage"

// ioMethods lists the storage-layer methods that touch pages: a loop
// calling any of these is a loop the cancellation discipline covers.
// Cheap metadata accessors (NumPages, BucketRange, Schema, ...) are
// deliberately absent.
var ioMethods = map[string]map[string]bool{
	"HeapFile": {
		"ReadPageInto": true, "PageRecords": true,
		"Scan": true, "Get": true, "Append": true, "AppendRun": true,
		"Update": true, "Delete": true, "NumRecords": true,
	},
	"BufferPool": {"FetchPage": true, "NewPage": true, "pinAhead": true, "release": true},
	"PageStream": {"Read": true, "Release": true},
}

func run(pass *analysis.Pass) error {
	for _, s := range scopeSuffixes {
		if lintutil.PkgHasSuffix(pass.Pkg, s) {
			for _, file := range pass.Files {
				checkLoops(pass, file)
			}
			return nil
		}
	}
	if !lintutil.PkgHasSuffix(pass.Pkg, storageSuffix) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && takesContext(pass, fd) {
				checkLoops(pass, fd.Body)
			}
		}
	}
	return nil
}

// checkLoops reports every loop under root that performs storage I/O
// without a per-iteration context check.
func checkLoops(pass *analysis.Pass, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			body = n.Body
		case *ast.RangeStmt:
			body = n.Body
		default:
			return true
		}
		recv, method, pos := firstIO(pass, body)
		if recv == "" {
			return true
		}
		if checksContext(pass, body) {
			return true
		}
		pass.Reportf(pos, "loop performs storage I/O (%s.%s) without a per-iteration context check (ctx.Err, ctx.Done, or a callee handed the context)",
			recv, method)
		return true
	})
}

// takesContext reports whether the function declares a context.Context
// parameter.
func takesContext(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return false
	}
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if lintutil.IsContext(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// firstIO returns the receiver type and method name of the first storage
// I/O call in the subtree, or "" when there is none.
func firstIO(pass *analysis.Pass, body *ast.BlockStmt) (recv, method string, pos token.Pos) {
	ast.Inspect(body, func(n ast.Node) bool {
		if recv != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := lintutil.Callee(pass.TypesInfo, call)
		named := lintutil.RecvNamed(fn)
		if named == nil || named.Obj().Pkg() == nil {
			return true
		}
		if !lintutil.PkgHasSuffix(named.Obj().Pkg(), storageSuffix) {
			return true
		}
		if ioMethods[named.Obj().Name()][fn.Name()] {
			recv, method, pos = named.Obj().Name(), fn.Name(), call.Pos()
		}
		return true
	})
	return recv, method, pos
}

// checksContext reports whether the subtree observes a context: a call to
// ctx.Err or ctx.Done, or a call handed a context (the callee owns
// cancellation from there on).
func checksContext(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if name := sel.Sel.Name; name == "Err" || name == "Done" {
				if tv, ok := pass.TypesInfo.Types[sel.X]; ok && lintutil.IsContext(tv.Type) {
					found = true
					return false
				}
			}
		}
		if passesContext(pass.TypesInfo, call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// passesContext reports whether the call hands its callee a context the
// caller has in reach: an argument of type context.Context that is neither
// nil nor a fresh context.Background() or context.TODO(), none of which
// can ever be cancelled.
func passesContext(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		tv, ok := info.Types[arg]
		if !ok || tv.IsNil() || !lintutil.IsContext(tv.Type) {
			continue
		}
		if c, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
			if fn := lintutil.Callee(info, c); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
				(fn.Name() == "Background" || fn.Name() == "TODO") {
				continue
			}
		}
		return true
	}
	return false
}
