package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// names lists the names of a node's children.
func names(n *TraceNode) []string {
	var out []string
	for _, c := range n.Children {
		out = append(out, c.Name)
	}
	return out
}

// TestTraceTree laps a serial query's clock and checks the rendered
// structure: the root, then the phases that ran in phase order, each with
// its exclusive time and counters.
func TestTraceTree(t *testing.T) {
	var c Clock
	c.Lap(PhaseParse, 10*time.Microsecond)
	c.Lap(PhasePlan, 50*time.Microsecond)
	c.Carve(PhasePlan, PhaseGrade, 20*time.Microsecond)
	c.Phase[PhaseGrade].Qualify, c.Phase[PhaseGrade].Disqualify, c.Phase[PhaseGrade].Ambivalent = 12, 80, 8
	c.Lap(PhaseFold, 5*time.Millisecond)
	c.Carve(PhaseFold, PhaseScan, 4*time.Millisecond)
	c.Phase[PhaseScan].PagesRead, c.Phase[PhaseScan].PrefetchHits, c.Phase[PhaseScan].Batches = 20, 17, 3
	c.Phase[PhaseFold].Rows = 4
	c.Lap(PhaseStream, 30*time.Microsecond)
	c.Phase[PhaseStream].Rows = 4

	node := c.Trace("select  count(*)\nfrom T", "SMA_Scan+GAggr", 1, 6*time.Millisecond, nil)
	if node.Name != "query" || node.Note != "select count(*) from T" || node.DurMicros != 6000 {
		t.Fatalf("root = %+v (sql should be whitespace-normalized)", node)
	}
	if got := strings.Join(names(node), " "); got != "parse plan grade scan fold stream" {
		t.Fatalf("phases = %s", got)
	}
	if pl := node.Find("plan"); pl.Note != "SMA_Scan+GAggr" || pl.DurMicros != 30 {
		t.Fatalf("plan = %+v, want the strategy and 30µs left after grading", pl)
	}
	if g := node.Find("grade"); g.DurMicros != 20 || g.Qualify != 12 || g.Ambivalent != 8 {
		t.Fatalf("grade = %+v", g)
	}
	sn := node.Find("scan")
	if sn.PagesRead != 20 || sn.PrefetchHits != 17 || sn.Batches != 3 || sn.DurMicros != 4000 {
		t.Fatalf("scan counters wrong: %+v", sn)
	}
	if f := node.Find("fold"); f.DurMicros != 1000 || f.Rows != 4 {
		t.Fatalf("fold = %+v, want 1ms exclusive of the scan", f)
	}
	var sum int64
	for _, ch := range node.Children {
		sum += ch.DurMicros
	}
	if sum > node.DurMicros {
		t.Fatalf("phases sum to %dµs, more than the statement's %dµs", sum, node.DurMicros)
	}
}

// TestTraceNilSafety: a clock nothing was charged to renders the root
// alone, and lookups on absent nodes are inert.
func TestTraceNilSafety(t *testing.T) {
	var c Clock
	node := c.Trace("select 1", "", 1, 0, nil)
	if node.Name != "query" || len(node.Children) != 0 {
		t.Fatalf("empty clock rendered %+v", node)
	}
	if node.Find("scan") != nil || (*TraceNode)(nil).Find("query") != nil {
		t.Fatal("lookup found a node that is not there")
	}
}

// TestTracePartialFinish simulates a cancelled parallel query: the phases
// it never reached are absent, a worker cancelled before it counted
// anything still has its row, and the tree is well-formed.
func TestTracePartialFinish(t *testing.T) {
	var c Clock
	c.Lap(PhaseParse, time.Microsecond)
	c.Lap(PhasePlan, time.Microsecond)
	c.Lap(PhaseMerge, time.Millisecond)
	c.Lap(PhaseStream, 0)
	workers := []Tally{{Dur: time.Millisecond, Counters: Counters{PagesRead: 3}}, {}}
	node := c.Trace("select 1", "FullScan+GAggr", 2, 2*time.Millisecond, workers)
	if got := strings.Join(names(node), " "); got != "parse plan merge stream" {
		t.Fatalf("phases = %s", got)
	}
	m := node.Find("merge")
	if m.Note != "dop=2" || len(m.Children) != 2 || m.Children[1].Note != "w1" || m.Children[1].DurMicros != 0 {
		t.Fatalf("merge = %+v", m)
	}
	if node.Find("scan") != nil || node.Find("fold") != nil {
		t.Fatal("a phase that never ran was rendered")
	}
}

// TestTraceConcurrentChildren has workers fill their own rows in
// parallel, as the parallel aggregation stage does, and renders one node
// per worker under merge.
func TestTraceConcurrentChildren(t *testing.T) {
	workers := make([]Tally, 8)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(row *Tally, w int) {
			defer wg.Done()
			row.Dur, row.PagesRead = time.Duration(w)*time.Microsecond, int64(w)
		}(&workers[w], w)
	}
	wg.Wait()
	var c Clock
	c.Lap(PhaseMerge, time.Millisecond)
	pn := c.Trace("select 1", "", 8, time.Millisecond, workers).Find("merge")
	if len(pn.Children) != 8 {
		t.Fatalf("got %d worker nodes, want 8", len(pn.Children))
	}
	for i, w := range pn.Children {
		if w.Name != "worker" || w.PagesRead != int64(i) || w.DurMicros != int64(i) {
			t.Fatalf("worker %d = %+v", i, w)
		}
	}
}

// TestTraceRenderAndJSON checks the rendered tree shape and the JSON
// field names the wire protocol relies on.
func TestTraceRenderAndJSON(t *testing.T) {
	var c Clock
	c.Lap(PhaseMerge, time.Millisecond)
	c.Phase[PhaseMerge].PagesRead = 7
	node := c.Trace("select count(*) from T", "", 2, time.Millisecond, []Tally{{Counters: Counters{PagesRead: 7}}})

	out := node.Render()
	if !strings.Contains(out, "└─ merge [dop=2]") || !strings.Contains(out, "   └─ worker [w0]") {
		t.Fatalf("render missing tree connectors:\n%s", out)
	}
	if !strings.Contains(out, "pages=7") {
		t.Fatalf("render missing counters:\n%s", out)
	}

	data, err := json.Marshal(node)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"query"`, `"dur_us"`, `"pages_read":7`, `"children"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("JSON missing %s: %s", want, data)
		}
	}
	var back TraceNode
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Find("worker").PagesRead != 7 {
		t.Fatal("JSON round trip lost counters")
	}
}

// TestObserverBasics exercises ids, context propagation, and the
// registered families.
func TestObserverBasics(t *testing.T) {
	o := NewObserver(Config{})
	if id := o.NextQueryID(); id != "q1" {
		t.Fatalf("first id %q", id)
	}
	if id := o.NextQueryID(); id != "q2" {
		t.Fatalf("second id %q", id)
	}
	ctx := WithQueryID(context.Background(), "q9")
	if got := QueryIDFrom(ctx); got != "q9" {
		t.Fatalf("ctx id %q", got)
	}
	if QueryIDFrom(context.Background()) != "" {
		t.Fatal("background ctx has an id")
	}
	o.Engine.Queries.With("SMA_GAggr").Inc()
	o.Engine.QuerySeconds.With("SMA_GAggr").Observe(0.01)
	o.Storage.ReadSeconds.Observe(0.001)
	o.Parallel.PartitionSkew.Observe(1.2)
	var b strings.Builder
	if err := o.Reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition([]byte(b.String())); err != nil {
		t.Fatalf("observer registry exposition invalid: %v", err)
	}
	// Nil observer is inert.
	var nilO *Observer
	if nilO.NextQueryID() != "" {
		t.Fatal("nil observer minted an id")
	}
	if nilO.Logger() == nil {
		t.Fatal("nil observer logger is nil")
	}
	nilO.Logger().Info("dropped")
}
