package stats

import (
	"strings"
	"testing"
	"time"
)

func TestIsVirtual(t *testing.T) {
	for _, name := range VirtualNames() {
		if !IsVirtual(name) || !IsVirtual(strings.ToLower(name)) {
			t.Errorf("IsVirtual(%q) = false", name)
		}
	}
	if IsVirtual("SALES") || IsVirtual("") {
		t.Error("IsVirtual misfires on ordinary names")
	}
}

// TestRelationForNilCollector: with observability off every virtual table is
// still queryable — schema intact, zero rows.
func TestRelationForNilCollector(t *testing.T) {
	for _, name := range VirtualNames() {
		rel, ok := RelationFor(name, nil, nil)
		if !ok || rel == nil || rel.Schema == nil {
			t.Fatalf("RelationFor(%q, nil) = %v, %v", name, rel, ok)
		}
		if len(rel.Tuples) != 0 {
			t.Errorf("%s: %d rows from nil collector", name, len(rel.Tuples))
		}
	}
	if _, ok := RelationFor("SALES", nil, nil); ok {
		t.Error("RelationFor accepted a heap table name")
	}
}

func TestStatementsRelationRendering(t *testing.T) {
	c := New()
	c.Record(&Record{Query: true, Fingerprint: 0xabc, Norm: "select * from t where a > ?",
		Table: "T", Kind: "SMA_Scan", DOP: 2, Dur: 3 * time.Millisecond,
		Rows: 7, PagesRead: 4, PagesPruned: 12})
	rel, ok := RelationFor("sma_stat_statements", c, nil)
	if !ok || len(rel.Tuples) != 1 {
		t.Fatalf("rel = %+v ok=%v", rel, ok)
	}
	tp := rel.Tuples[0]
	if got := tp.Char(0); got != "0000000000000abc" {
		t.Errorf("fingerprint = %q", got)
	}
	if tp.Int64(1) != 1 || tp.Int64(8) != 7 || tp.Int64(10) != 4 || tp.Int64(11) != 12 {
		t.Errorf("counters: calls=%d rows=%d read=%d pruned=%d",
			tp.Int64(1), tp.Int64(8), tp.Int64(10), tp.Int64(11))
	}
	if got := tp.Float64(3); got < 2.9 || got > 3.1 {
		t.Errorf("total_ms = %v", got)
	}
	if got := tp.Char(15); got != "SMA_Scan" {
		t.Errorf("strategy = %q", got)
	}
	if got := tp.Char(19); got != "select * from t where a > ?" {
		t.Errorf("query = %q", got)
	}
}

// TestSMAsRelationCatalogDriven: one row per defined SMA, zero-valued when
// never consulted; dropped SMAs (absent from the catalog) don't appear.
func TestSMAsRelationCatalogDriven(t *testing.T) {
	c := New()
	consult(c, "T", "used", "A", "min", 2, 8)
	consult(c, "T", "dropped", "B", "max", 1, 1)
	catalog := []CatalogSMA{
		{Table: "T", Name: "used", Column: "A", Kind: "min"},
		{Table: "T", Name: "fresh", Column: "C", Kind: "max"},
	}
	rel, _ := RelationFor(TableSMAs, c, catalog)
	if len(rel.Tuples) != 2 {
		t.Fatalf("rows = %d, want 2", len(rel.Tuples))
	}
	if got := rel.Tuples[0].Char(1); got != "used" {
		t.Errorf("row0 sma = %q", got)
	}
	if rel.Tuples[0].Int64(4) != 1 || rel.Tuples[0].Int64(5) != 2 || rel.Tuples[0].Int64(6) != 8 {
		t.Errorf("used counters = %v/%v/%v",
			rel.Tuples[0].Int64(4), rel.Tuples[0].Int64(5), rel.Tuples[0].Int64(6))
	}
	if got := rel.Tuples[1].Char(1); got != "fresh" {
		t.Errorf("row1 sma = %q", got)
	}
	if rel.Tuples[1].Int64(4) != 0 {
		t.Errorf("fresh consulted = %d, want 0", rel.Tuples[1].Int64(4))
	}
}

// TestSetCharTruncates: oversized strings (long SQL, long reasons) truncate
// to the column width instead of corrupting the fixed-width tuple.
func TestSetCharTruncates(t *testing.T) {
	c := New()
	long := strings.Repeat("x", 200)
	c.Record(&Record{Query: true, Fingerprint: 1, Norm: "select " + long, Dur: time.Millisecond})
	rel, _ := RelationFor(TableStatements, c, nil)
	if got := rel.Tuples[0].Char(19); len(got) != 96 {
		t.Errorf("query length = %d, want 96", len(got))
	}
}

func TestActivityRelation(t *testing.T) {
	c := New()
	c.BeginActivity("query", "select *\n  from t", 0xf)
	rel, _ := RelationFor(TableActivity, c, nil)
	if len(rel.Tuples) != 1 {
		t.Fatalf("rows = %d", len(rel.Tuples))
	}
	tp := rel.Tuples[0]
	if tp.Char(1) != "query" || tp.Char(3) != "000000000000000f" {
		t.Errorf("kind=%q fp=%q", tp.Char(1), tp.Char(3))
	}
	if got := tp.Char(4); got != "select * from t" {
		t.Errorf("sql_text = %q (whitespace should fold)", got)
	}
	if tp.Float64(2) < 0 {
		t.Errorf("elapsed_ms = %v", tp.Float64(2))
	}
}
