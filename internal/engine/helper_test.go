package engine

import (
	"context"
	"fmt"
	"strconv"

	"sma/internal/core"
	"sma/internal/obs"
	"sma/internal/parser"
	"sma/internal/planner"
	"sma/internal/storage"
	"sma/internal/tuple"
)

// Collected is a drained query: the column names, every row rendered to
// strings (integral floats trimmed, dates as YYYY-MM-DD), and the plan
// that produced them.
type Collected struct {
	Columns []string
	Rows    [][]string
	Plan    *planner.Plan
}

// Collect runs a SELECT through QueryContext and drains its cursor — the
// tests' one way to ask "what does this query return". Declared in the
// package's own test files so both the internal and the external test
// package can use it.
func Collect(db *DB, sql string, opts ...QueryOption) (*Collected, error) {
	cur, err := db.QueryContext(context.Background(), sql, opts...)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	res := &Collected{Plan: cur.Plan()}
	for _, c := range cur.Columns() {
		res.Columns = append(res.Columns, c.Name)
	}
	for {
		vals, ok, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return res, nil
		}
		row := make([]string, len(vals))
		for i, v := range vals {
			switch x := v.(type) {
			case string:
				row[i] = x
			case int32:
				row[i] = tuple.FormatDate(x)
			case int64:
				row[i] = strconv.FormatInt(x, 10)
			case float64:
				if x == float64(int64(x)) {
					row[i] = strconv.FormatInt(int64(x), 10)
				} else {
					row[i] = fmt.Sprintf("%.4f", x)
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
}

// Cached reports whether the statement cache spared the query its parse —
// a plan template copied, or a cached parse planned again: the record's
// parse phase took no time. A parse that ran took some.
func (c *Cursor) Cached() bool { return c.st.clock.Phase[obs.PhaseParse].Dur == 0 }

// ForgetStatements empties the statement cache, so the next read of any
// text is parsed and planned as on a database that never saw it.
func (db *DB) ForgetStatements() {
	db.stmts.mu.Lock()
	db.stmts.m = nil
	db.stmts.mu.Unlock()
}

// SetWALFault installs fn to run, with op "sync", before every statement's
// wait for its commit to be durable (nil removes it), so tests can stall
// writers between commit and group commit with the fault plans of package
// chaos; an error it returns is the statement's.
func (db *DB) SetWALFault(fn storage.FaultFn) {
	if fn == nil {
		db.syncFault.Store(nil)
		return
	}
	db.syncFault.Store(&fn)
}

// DefineSMA parses a "define sma" statement and defines the SMA it names.
func (db *DB) DefineSMA(ddl string) (*core.SMA, error) {
	st, err := parser.ParseStatement(ddl)
	if err != nil {
		return nil, err
	}
	def, ok := st.(*parser.DefineSMAStmt)
	if !ok {
		return nil, fmt.Errorf("not a define sma statement: %q", ddl)
	}
	return db.DefineSMADef(def.Def)
}
