// Package lockorder enforces the engine's lock-acquisition discipline:
//
//  1. No disk read while holding the buffer pool's mutex. The pool
//     deliberately registers a miss's frames, unlocks, and only then reads
//     them — one page or a run of pages — so concurrent misses overlap
//     their I/O; a read added under bp.mu serializes the whole pool on one
//     disk operation. Every DiskManager method whose name starts with
//     "read" or "Read" (ReadPage, the run read readPages) is banned there.
//     (Eviction write-back under the lock is the documented exception, so
//     writes are not.)
//  2. Never call back into the buffer pool while holding a narrower
//     storage-layer lock (the prefetcher's mark mutex, a frame-level
//     lock): the pool's mutex is the outermost storage lock, and
//     pool-under-prefetcher inverts that order against the readers that
//     hold the pool path first.
//  3. Never call a method that acquires a mutex the caller already holds
//     (sync.Mutex and sync.RWMutex are not reentrant). This encodes the
//     engine's locked/unlocked method-pair convention: while holding
//     db.mu, call the unexported locked helpers (table, tableNames), not
//     the exported self-locking API (Table, Tables).
//
// The checker walks each function body sequentially, tracking mutexes by
// (owner type, field): `x.mu.Lock()` adds, `x.mu.Unlock()` removes, and a
// deferred unlock holds to the end of the function. Branch bodies are
// analyzed against a copy of the held set, so an early-unlock-and-return
// arm neither leaks nor clears the outer section.
package lockorder

import (
	"go/ast"
	"go/types"
	"strings"

	"sma/internal/lint/analysis"
	"sma/internal/lint/lintutil"
)

// Analyzer is the lockorder check.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "storage/engine lock discipline: no disk reads (of a page or a run) under the pool " +
		"mutex, no pool calls under narrower storage locks, and no calls " +
		"to methods that re-acquire a mutex already held",
	Run: run,
}

// mutexKey identifies a mutex by its owning named type and field name, so
// `bp.mu` in one method and `p.bp.mu` in another are the same lock.
type mutexKey struct {
	owner *types.TypeName
	field string
}

type checker struct {
	pass *analysis.Pass
	// selfLock maps package-local functions to the mutexes their bodies
	// acquire directly (rule 3's "known to lock" set).
	selfLock map[*types.Func][]mutexKey
	storage  bool // package is a storage-layer package (rules 1 and 2)
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		selfLock: make(map[*types.Func][]mutexKey),
		storage:  lintutil.PkgHasSuffix(pass.Pkg, "internal/storage"),
	}
	// Pass 1: which functions acquire which mutexes directly?
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // closures lock on their own schedule
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if key, op, ok := c.mutexOp(call); ok && (op == "Lock" || op == "RLock") {
					c.selfLock[obj] = append(c.selfLock[obj], key)
				}
				return true
			})
		}
	}
	// Pass 2: walk every body with the held-set tracker.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.walkStmts(fd.Body.List, map[mutexKey]bool{})
			}
		}
	}
	return nil
}

// mutexOp decodes a call of the form <path>.<field>.Lock/RLock/Unlock/
// RUnlock() where <field> is a sync.Mutex or sync.RWMutex field of a
// named type.
func (c *checker) mutexOp(call *ast.CallExpr) (mutexKey, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return mutexKey{}, "", false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return mutexKey{}, "", false
	}
	// sel.X must itself be owner.field with a sync (RW)Mutex type.
	fieldSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return mutexKey{}, "", false
	}
	tv, ok := c.pass.TypesInfo.Types[sel.X]
	if !ok || !isSyncMutex(tv.Type) {
		return mutexKey{}, "", false
	}
	ownerTV, ok := c.pass.TypesInfo.Types[fieldSel.X]
	if !ok {
		return mutexKey{}, "", false
	}
	owner := lintutil.Named(ownerTV.Type)
	if owner == nil {
		return mutexKey{}, "", false
	}
	return mutexKey{owner: owner.Obj(), field: fieldSel.Sel.Name}, op, true
}

func isSyncMutex(t types.Type) bool {
	n := lintutil.Named(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" &&
		(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

// walkStmts tracks the held set through a statement list.
func (c *checker) walkStmts(list []ast.Stmt, held map[mutexKey]bool) {
	for _, s := range list {
		c.walkStmt(s, held)
	}
}

func (c *checker) walkStmt(s ast.Stmt, held map[mutexKey]bool) {
	branch := func(stmts []ast.Stmt) {
		copyHeld := make(map[mutexKey]bool, len(held))
		for k, v := range held {
			copyHeld[k] = v
		}
		c.walkStmts(stmts, copyHeld)
	}
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if key, op, ok := c.mutexOp(call); ok {
				switch op {
				case "Lock", "RLock":
					if held[key] {
						c.pass.Reportf(call.Pos(), "%s.%s is acquired while already held (non-reentrant)",
							key.owner.Name(), key.field)
					}
					held[key] = true
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				return
			}
			c.checkCall(call, held)
			c.walkCallLits(call)
		}
	case *ast.DeferStmt:
		// A deferred unlock keeps the section open to function end; any
		// other deferred call is off the critical path and not checked.
		return
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			ast.Inspect(rhs, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					c.checkCall(call, held)
				}
				return true
			})
		}
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, held)
		}
		branch(s.Body.List)
		if s.Else != nil {
			branch([]ast.Stmt{s.Else})
		}
	case *ast.ForStmt:
		branch(s.Body.List)
	case *ast.RangeStmt:
		branch(s.Body.List)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var body *ast.BlockStmt
		switch s := s.(type) {
		case *ast.SwitchStmt:
			body = s.Body
		case *ast.TypeSwitchStmt:
			body = s.Body
		case *ast.SelectStmt:
			body = s.Body
		}
		for _, cc := range body.List {
			switch cc := cc.(type) {
			case *ast.CaseClause:
				branch(cc.Body)
			case *ast.CommClause:
				branch(cc.Body)
			}
		}
	case *ast.BlockStmt:
		branch(s.List)
	case *ast.LabeledStmt:
		c.walkStmt(s.Stmt, held)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			ast.Inspect(res, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					c.checkCall(call, held)
				}
				return true
			})
		}
	case *ast.GoStmt:
		return // runs concurrently, not under our held set
	}
}

// walkCallLits analyzes function literals passed as arguments with an
// empty held set (they run later, e.g. heap-scan visitors are called back
// synchronously — but through storage code already covered by rule 1).
func (c *checker) walkCallLits(call *ast.CallExpr) {
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			c.walkStmts(lit.Body.List, map[mutexKey]bool{})
		}
	}
}

// checkCall applies the three rules to one call made inside the current
// critical sections.
func (c *checker) checkCall(call *ast.CallExpr, held map[mutexKey]bool) {
	if len(held) == 0 {
		return
	}
	fn := lintutil.Callee(c.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	recv := lintutil.RecvNamed(fn)

	// Rule 3: re-acquiring a held mutex through a callee.
	for _, key := range c.selfLock[fn] {
		if held[key] {
			c.pass.Reportf(call.Pos(), "call to %s acquires %s.%s, which is already held here (use the *locked* variant)",
				fn.Name(), key.owner.Name(), key.field)
		}
	}

	if !c.storage || recv == nil || recv.Obj().Pkg() == nil ||
		!lintutil.PkgHasSuffix(recv.Obj().Pkg(), "internal/storage") {
		return
	}
	// Rule 1: disk read under the pool lock.
	if recv.Obj().Name() == "DiskManager" && strings.HasPrefix(strings.ToLower(fn.Name()), "read") {
		for key := range held {
			if key.owner.Name() == "BufferPool" {
				c.pass.Reportf(call.Pos(), "DiskManager.%s while holding %s.%s: release the pool lock before physical reads",
					fn.Name(), key.owner.Name(), key.field)
			}
		}
	}
	// Rule 2: calling into the pool under a narrower storage lock.
	if recv.Obj().Name() == "BufferPool" {
		for key := range held {
			if key.owner.Name() != "BufferPool" {
				c.pass.Reportf(call.Pos(), "BufferPool.%s while holding %s.%s: release the narrower lock before calling into the pool",
					fn.Name(), key.owner.Name(), key.field)
			}
		}
	}
}
