package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"sma/internal/core"
	"sma/internal/parser"
	"sma/internal/storage"
	"sma/internal/tuple"
)

// catalogFile is the name of the catalog JSON inside the database dir.
const catalogFile = "catalog.json"

// columnJSON serializes one schema column.
type columnJSON struct {
	Name string `json:"name"`
	Type string `json:"type"`
	Len  int    `json:"len,omitempty"`
}

// tableJSON serializes one table.
type tableJSON struct {
	Name        string       `json:"name"`
	BucketPages int          `json:"bucket_pages"`
	Columns     []columnJSON `json:"columns"`
}

// smaJSON serializes one SMA definition; the expression round-trips
// through its SQL rendering.
type smaJSON struct {
	Name    string   `json:"name"`
	Table   string   `json:"table"`
	Agg     string   `json:"agg"`
	Expr    string   `json:"expr,omitempty"`
	GroupBy []string `json:"group_by,omitempty"`
}

// catalogJSON is the persisted catalog.
type catalogJSON struct {
	Tables []tableJSON `json:"tables"`
	SMAs   []smaJSON   `json:"smas"`
}

func typeName(t tuple.Type) string { return t.String() }

func typeFromName(s string) (tuple.Type, error) {
	switch s {
	case "INT32":
		return tuple.TInt32, nil
	case "INT64":
		return tuple.TInt64, nil
	case "FLOAT64":
		return tuple.TFloat64, nil
	case "DATE":
		return tuple.TDate, nil
	case "CHAR":
		return tuple.TChar, nil
	default:
		return 0, fmt.Errorf("engine: unknown column type %q in catalog", s)
	}
}

// saveCatalog writes the catalog JSON through storage.WriteFile.
func (db *DB) saveCatalog() error {
	var cat catalogJSON
	for _, name := range db.tableNames() {
		t := db.tables[name]
		tj := tableJSON{Name: t.Name, BucketPages: t.BucketPages}
		for _, c := range t.Schema.Columns() {
			tj.Columns = append(tj.Columns, columnJSON{Name: c.Name, Type: typeName(c.Type), Len: c.Len})
		}
		cat.Tables = append(cat.Tables, tj)
		for _, s := range t.SMAs() {
			sj := smaJSON{
				Name:    s.Def.Name,
				Table:   s.Def.Table,
				Agg:     s.Def.Agg.String(),
				GroupBy: s.Def.GroupBy,
			}
			if s.Def.Expr != nil {
				sj.Expr = s.Def.Expr.String()
			}
			cat.SMAs = append(cat.SMAs, sj)
		}
	}
	data, err := json.MarshalIndent(&cat, "", "  ")
	if err != nil {
		return err
	}
	return storage.WriteFile(filepath.Join(db.dir, catalogFile), data)
}

// loadCatalog restores tables and SMAs from the catalog JSON, if present.
// A damaged catalog fails it with an error
// storage.IsCorrupt recognises; a damaged SMA-file is rebuilt from the heap.
func (db *DB) loadCatalog() error {
	data, err := storage.ReadFile(filepath.Join(db.dir, catalogFile))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var cat catalogJSON
	if err := json.Unmarshal(data, &cat); err != nil {
		return fmt.Errorf("engine: corrupt catalog: %w", err)
	}
	for _, tj := range cat.Tables {
		cols := make([]tuple.Column, len(tj.Columns))
		for i, cj := range tj.Columns {
			typ, err := typeFromName(cj.Type)
			if err != nil {
				return err
			}
			cols[i] = tuple.Column{Name: cj.Name, Type: typ, Len: cj.Len}
		}
		schema, err := tuple.NewSchema(cols)
		if err != nil {
			return err
		}
		bp := tj.BucketPages
		if bp <= 0 {
			bp = 1
		}
		if _, err := db.openTable(tj.Name, schema, bp); err != nil {
			return err
		}
	}
	for _, sj := range cat.SMAs {
		t, err := db.Table(sj.Table)
		if err != nil {
			return fmt.Errorf("engine: catalog sma %s references %w", sj.Name, err)
		}
		agg, err := core.ParseAggKind(sj.Agg)
		if err != nil {
			return err
		}
		def := core.NewDef(sj.Name, sj.Table, agg, nil, sj.GroupBy...)
		if sj.Expr != "" {
			e, err := parser.ParseExpr(sj.Expr)
			if err != nil {
				return fmt.Errorf("engine: catalog sma %s expression: %w", sj.Name, err)
			}
			def.Expr = e
		}
		s, err := core.Load(db.smaDir(t.Name), def, t.Schema)
		if err != nil {
			// SMA-files are derived data. A crash can catch them unsaved, a
			// bit flip can fail their checksum, and a zero-group SMA
			// legitimately saves no files at all — none of which may leave
			// the catalog unopenable. Rebuild from the heap (recovery re-rebuilds WAL-touched tables
			// again after replay, so a pre-replay heap here is harmless).
			if o := db.opts.Obs; o != nil {
				o.Logger().Warn("sma load failed; rebuilding from heap",
					"sma", sj.Name, "table", t.Name, "err", err)
			}
			s, err = core.Build(t.Heap, def)
			if err != nil {
				return fmt.Errorf("engine: rebuild sma %s: %w", sj.Name, err)
			}
			if err := s.Save(db.smaDir(t.Name)); err != nil {
				return fmt.Errorf("engine: rebuild sma %s: %w", sj.Name, err)
			}
		}
		t.smas[def.Name] = s
	}
	return nil
}
