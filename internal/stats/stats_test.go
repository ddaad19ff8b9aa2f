package stats

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// consult records one query over table whose plan consulted a single SMA.
func consult(c *Collector, table, name, column, kind string, disqualified, pagesSaved int64) {
	c.Record(&Record{Query: true, Table: table, SMAs: []SMAUse{
		{Name: name, Column: column, Kind: kind, Disqualified: disqualified, PagesSaved: pagesSaved}}})
}

func TestRecordQueryAccumulates(t *testing.T) {
	c := New()
	for i := 0; i < 3; i++ {
		c.Record(&Record{
			Query: true, Fingerprint: 7, Norm: "select * from sales where amount > ?",
			Table: "SALES", Kind: "SMA_Scan", DOP: 2,
			Dur: time.Duration(i+1) * time.Millisecond, Rows: 10,
			PagesRead: 4, PagesPruned: 6, Qualify: 1, Disqualify: 6, Ambivalent: 3,
			FilterCols: []FilterCol{{Col: "AMOUNT", NeedMin: true}},
		})
	}
	c.Record(&Record{Query: true, Fingerprint: 7, Norm: "…", Table: "SALES", Dur: time.Millisecond, Err: true})

	sts := c.Statements()
	if len(sts) != 1 {
		t.Fatalf("statements = %d, want 1", len(sts))
	}
	st := sts[0]
	if st.Calls != 4 || st.Errors != 1 {
		t.Errorf("calls=%d errors=%d", st.Calls, st.Errors)
	}
	if st.Text != "select * from sales where amount > ?" {
		t.Errorf("text = %q (first-seen norm should stick)", st.Text)
	}
	if st.Rows != 30 || st.PagesRead != 12 || st.PagesPruned != 18 {
		t.Errorf("rows=%d read=%d pruned=%d", st.Rows, st.PagesRead, st.PagesPruned)
	}
	if st.Qualify != 3 || st.Disqualify != 18 || st.Ambivalent != 9 {
		t.Errorf("grades = %d/%d/%d", st.Qualify, st.Disqualify, st.Ambivalent)
	}
	if st.MinNS != int64(time.Millisecond) || st.MaxNS != int64(3*time.Millisecond) {
		t.Errorf("min=%d max=%d", st.MinNS, st.MaxNS)
	}
	if st.TotalNS != int64(7*time.Millisecond) {
		t.Errorf("total=%d", st.TotalNS)
	}
	p50, p99 := st.Quantiles()
	if p50 <= 0 || p99 < p50 {
		t.Errorf("p50=%v p99=%v", p50, p99)
	}

	tabs := c.Tables()
	if len(tabs) != 1 || tabs[0].Table != "SALES" {
		t.Fatalf("tables = %+v", tabs)
	}
	if tabs[0].Scans != 4 || tabs[0].RowsRead != 30 {
		t.Errorf("scans=%d rows=%d", tabs[0].Scans, tabs[0].RowsRead)
	}
	if len(tabs[0].Cols) != 1 || tabs[0].Cols[0].Column != "AMOUNT" || tabs[0].Cols[0].Filters != 3 {
		t.Errorf("cols = %+v", tabs[0].Cols)
	}
}

func TestRecordExecAccumulates(t *testing.T) {
	c := New()
	c.Record(&Record{Fingerprint: 1, Norm: "insert into t values ( ? )", Kind: "insert",
		Table: "T", Dur: time.Millisecond, RowsAffected: 1, WALBytes: 100, WALSyncs: 1})
	c.Record(&Record{Fingerprint: 2, Norm: "delete from t where a = ?", Kind: "delete",
		Table: "T", Dur: 2 * time.Millisecond, RowsAffected: 5, WALBytes: 300, WALSyncs: 2})
	c.Record(&Record{Fingerprint: 3, Norm: "update t set a = ?", Kind: "update",
		Table: "T", Dur: time.Millisecond, RowsAffected: 2, WALBytes: 50, WALSyncs: 1})

	tabs := c.Tables()
	if len(tabs) != 1 {
		t.Fatalf("tables = %+v", tabs)
	}
	ts := tabs[0]
	if ts.Inserts != 1 || ts.Updates != 1 || ts.Deletes != 1 {
		t.Errorf("ins=%d upd=%d del=%d", ts.Inserts, ts.Updates, ts.Deletes)
	}
	if ts.RowsAffected != 8 || ts.WALBytes != 450 {
		t.Errorf("rowsAffected=%d walBytes=%d", ts.RowsAffected, ts.WALBytes)
	}
	for _, st := range c.Statements() {
		if st.Fingerprint == 2 && (st.WALBytes != 300 || st.WALSyncs != 2 || st.Strategy != "delete") {
			t.Errorf("delete stmt = %+v", st)
		}
	}
}

func TestStatementsSortedByTotal(t *testing.T) {
	c := New()
	c.Record(&Record{Query: true, Fingerprint: 1, Norm: "cheap", Dur: time.Millisecond})
	c.Record(&Record{Query: true, Fingerprint: 2, Norm: "dear", Dur: time.Second})
	sts := c.Statements()
	if len(sts) != 2 || sts[0].Text != "dear" || sts[1].Text != "cheap" {
		t.Errorf("order = %+v", sts)
	}
}

func TestSMACountersAndMaint(t *testing.T) {
	c := New()
	consult(c, "SALES", "dmin", "SALE_DATE", "min", 5, 10)
	consult(c, "SALES", "dmin", "SALE_DATE", "min", 0, 0)
	c.RecordMaint("SALES", "dmin", 1)
	c.RecordMaint("SALES", "dmin", 99) // a 99-row statement, recorded once
	c.RecordMaint("SALES", "dmin", 0)
	c.RecordMaint("SALES", "other", 1) // maintenance before any plan consults it
	smas := c.SMAs()
	if len(smas) != 2 {
		t.Fatalf("smas = %+v", smas)
	}
	if s := smas[0]; s.Name != "dmin" || s.Consulted != 2 || s.Disqualified != 5 || s.PagesSaved != 10 || s.MaintOps != 100 {
		t.Errorf("dmin = %+v", s)
	}
	if s := smas[1]; s.Name != "other" || s.Consulted != 0 || s.MaintOps != 1 {
		t.Errorf("other = %+v", s)
	}
}

func TestActivities(t *testing.T) {
	c := New()
	id1 := c.BeginActivity("query", "select 1", 1)
	id2 := c.BeginActivity("exec", "insert …", 2)
	acts := c.Activities()
	if len(acts) != 2 || acts[0].ID != id1 || acts[1].ID != id2 {
		t.Fatalf("acts = %+v", acts)
	}
	c.Reset() // reset keeps in-flight activities
	if got := len(c.Activities()); got != 2 {
		t.Errorf("activities after reset = %d, want 2", got)
	}
	c.EndActivity(id1)
	c.EndActivity(0) // no-op token from a disabled collector
	if acts := c.Activities(); len(acts) != 1 || acts[0].ID != id2 {
		t.Errorf("acts = %+v", acts)
	}
}

func TestResetZeroesCounters(t *testing.T) {
	c := New()
	c.Record(&Record{Query: true, Fingerprint: 1, Norm: "q", Table: "T", Dur: time.Millisecond})
	consult(c, "T", "s", "A", "min", 1, 2)
	c.Reset()
	if len(c.Statements()) != 0 || len(c.SMAs()) != 0 || len(c.Tables()) != 0 {
		t.Errorf("post-reset: %d stmts, %d smas, %d tables",
			len(c.Statements()), len(c.SMAs()), len(c.Tables()))
	}
}

// TestNilCollector: every method is a no-op on nil, so hot paths need no
// enabled checks.
func TestNilCollector(t *testing.T) {
	var c *Collector
	c.Record(&Record{Query: true})
	c.Record(&Record{})
	consult(c, "t", "s", "c", "min", 1, 1)
	c.RecordMaint("t", "s", 1)
	c.EndActivity(c.BeginActivity("query", "q", 1))
	c.Reset()
	if c.Statements() != nil || c.SMAs() != nil || c.Tables() != nil || c.Activities() != nil {
		t.Error("nil collector returned non-nil snapshots")
	}
	if Advise(c, nil) != nil {
		t.Error("Advise(nil) returned advice")
	}
}

func TestQuantilesWindow(t *testing.T) {
	c := New()
	// Overflow the ring: the window keeps only the most recent latRing.
	for i := 0; i < latRing+50; i++ {
		c.Record(&Record{Query: true, Fingerprint: 9, Norm: "q", Dur: time.Duration(i+1) * time.Microsecond})
	}
	st := c.Statements()[0]
	p50, p99 := st.Quantiles()
	if p50 < 50*time.Microsecond || p99 > time.Duration(latRing+50)*time.Microsecond {
		t.Errorf("p50=%v p99=%v", p50, p99)
	}
	if p99 < p50 {
		t.Errorf("p99 %v < p50 %v", p99, p50)
	}
}

func TestAdvise(t *testing.T) {
	c := New()
	// AMOUNT: filtered twice, pages read, nothing pruned, no covering SMA → add.
	for i := 0; i < 2; i++ {
		c.Record(&Record{Query: true, Fingerprint: 1, Norm: "q", Table: "SALES",
			Dur: time.Millisecond, PagesRead: 40, FilterCols: []FilterCol{{Col: "AMOUNT", NeedMin: true}}})
	}
	// REGION: filtered once only → below adviseMinFilters, no advice.
	c.Record(&Record{Query: true, Fingerprint: 2, Norm: "q2", Table: "SALES",
		Dur: time.Millisecond, PagesRead: 40, FilterCols: []FilterCol{{Col: "REGION", NeedMin: true, NeedMax: true}}})
	// SALE_DATE: covered by the catalog → no advice even though unpruned.
	for i := 0; i < 2; i++ {
		c.Record(&Record{Query: true, Fingerprint: 3, Norm: "q3", Table: "SALES",
			Dur: time.Millisecond, PagesRead: 40, FilterCols: []FilterCol{{Col: "SALE_DATE", NeedMin: true}}})
	}
	// dead: consulted, never disqualified → drop. live: disqualified → keep.
	consult(c, "SALES", "dead", "SALE_DATE", "min", 0, 0)
	c.RecordMaint("SALES", "dead", 1)
	consult(c, "SALES", "live", "SALE_DATE", "max", 3, 9)

	catalog := []CatalogSMA{
		{Table: "SALES", Name: "dead", Column: "SALE_DATE", Kind: "min"},
		{Table: "SALES", Name: "live", Column: "SALE_DATE", Kind: "max"},
	}
	advice := Advise(c, catalog)
	if len(advice) != 2 {
		t.Fatalf("advice = %+v", advice)
	}
	add, drop := advice[0], advice[1]
	if add.Action != "add" || add.Table != "SALES" || add.Target != "AMOUNT" {
		t.Errorf("add = %+v", add)
	}
	if add.EstPagesSaved != 80 || add.Filters != 2 {
		t.Errorf("add economics = %+v", add)
	}
	if add.Suggestion != "define sma amount_min select min(AMOUNT) from SALES" {
		t.Errorf("add suggestion = %q", add.Suggestion)
	}
	if drop.Action != "drop" || drop.Target != "sma dead" || drop.MaintOps != 1 {
		t.Errorf("drop = %+v", drop)
	}
	if drop.Suggestion != "drop sma dead on SALES" {
		t.Errorf("drop suggestion = %q", drop.Suggestion)
	}
}

// TestAdviseOperatorAware: the suggested vector follows the workload's
// operators — >= filters prune through max, not min — and a column whose
// min side is covered still earns a max suggestion when >= filters need it.
func TestAdviseOperatorAware(t *testing.T) {
	c := New()
	// D: filtered twice with >= → a max vector is what prunes.
	for i := 0; i < 2; i++ {
		c.Record(&Record{Query: true, Fingerprint: 1, Norm: "q", Table: "T",
			Dur: time.Millisecond, PagesRead: 40, FilterCols: []FilterCol{{Col: "D", NeedMax: true}}})
	}
	// E: min SMA defined but the workload filters with >= only.
	for i := 0; i < 2; i++ {
		c.Record(&Record{Query: true, Fingerprint: 2, Norm: "q2", Table: "T",
			Dur: time.Millisecond, PagesRead: 40, FilterCols: []FilterCol{{Col: "E", NeedMax: true}}})
	}
	catalog := []CatalogSMA{{Table: "T", Name: "e_min", Column: "E", Kind: "min"}}
	advice := Advise(c, catalog)
	var adds []Advice
	for _, a := range advice {
		if a.Action == "add" {
			adds = append(adds, a)
		}
	}
	if len(adds) != 2 {
		t.Fatalf("add advice = %+v", advice)
	}
	for _, a := range adds {
		switch a.Target {
		case "D":
			if a.Suggestion != "define sma d_max select max(D) from T" {
				t.Errorf("D suggestion = %q", a.Suggestion)
			}
		case "E":
			if a.Suggestion != "define sma e_max select max(E) from T" {
				t.Errorf("E suggestion = %q", a.Suggestion)
			}
		default:
			t.Errorf("unexpected add target %q", a.Target)
		}
	}
}

// TestAdviseNoPruneAfterCoverage: once a column's queries actually prune
// pages, the add recommendation disappears.
func TestAdviseAddClearsAfterPruning(t *testing.T) {
	c := New()
	for i := 0; i < 2; i++ {
		c.Record(&Record{Query: true, Fingerprint: 1, Norm: "q", Table: "T",
			Dur: time.Millisecond, PagesRead: 10, PagesPruned: 30, FilterCols: []FilterCol{{Col: "A", NeedMin: true}}})
	}
	if advice := Advise(c, nil); len(advice) != 0 {
		t.Errorf("advice = %+v", advice)
	}
}

func TestCollectorConcurrency(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fp := uint64(g*1000 + i%10)
				c.Record(&Record{Query: true, Fingerprint: fp, Norm: fmt.Sprintf("q%d", fp),
					Table: "T", Dur: time.Microsecond, FilterCols: []FilterCol{{Col: "A", NeedMin: true}},
					SMAs: []SMAUse{{Name: "s", Column: "A", Kind: "min", Disqualified: 1, PagesSaved: 1}}})
				c.RecordMaint("T", "s", 1)
				c.EndActivity(c.BeginActivity("query", "q", fp))
			}
		}(g)
	}
	wg.Wait()
	var calls int64
	for _, st := range c.Statements() {
		calls += st.Calls
	}
	if calls != 8*200 {
		t.Errorf("calls = %d, want %d", calls, 8*200)
	}
	if s := c.SMAs(); len(s) != 1 || s[0].Consulted != 8*200 || s[0].MaintOps != 8*200 {
		t.Errorf("smas = %+v", s)
	}
	if a := c.Activities(); len(a) != 0 {
		t.Errorf("activities = %+v", a)
	}
}
