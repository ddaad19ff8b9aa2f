package obs

import (
	"fmt"
	"strings"
	"time"
)

// Phase names one slot of a statement's phase vector, in the order a query
// passes through them.
type Phase uint8

// The phases of a statement. Grade is the in-memory pass over the SMA
// vectors that sorts buckets into the paper's §3.1 qualifying,
// disqualifying and ambivalent sets; scan produces batches (page fetch,
// decode, selection); fold aggregates them; merge is a parallel run —
// partition, workers, merge — and stream hands the result rows out.
const (
	PhaseParse Phase = iota
	PhasePlan
	PhaseGrade
	PhaseScan
	PhaseFold
	PhaseMerge
	PhaseStream
	numPhases
)

var phaseNames = [numPhases]string{"parse", "plan", "grade", "scan", "fold", "merge", "stream"}

// Counters are what a phase or a parallel worker of a statement produced.
// The qualify/disqualify/ambivalent counts are §3.1 bucket grades. Zero
// counters are omitted from JSON.
type Counters struct {
	Rows            int64 `json:"rows,omitempty"`
	Batches         int64 `json:"batches,omitempty"`
	PagesRead       int64 `json:"pages_read,omitempty"`
	PagesPrefetched int64 `json:"pages_prefetched,omitempty"`
	PrefetchHits    int64 `json:"prefetch_hits,omitempty"`
	Qualify         int64 `json:"qualify,omitempty"`
	Disqualify      int64 `json:"disqualify,omitempty"`
	Ambivalent      int64 `json:"ambivalent,omitempty"`
}

// Tally is one phase's, or one parallel worker's, share of a statement: its
// wall time and its counters.
type Tally struct {
	Dur time.Duration
	Counters
}

// Clock is a statement's phase vector: one Tally per phase and the set of
// phases that ran. Phase times are exclusive — Lap charges the time since
// the previous lap to one phase, Carve moves a measured part of one phase
// to another — so they never sum to more than the statement's duration.
// The zero Clock is ready to use.
type Clock struct {
	Phase [numPhases]Tally
	ran   uint8
}

// Lap charges d to phase p and marks it run.
func (c *Clock) Lap(p Phase, d time.Duration) {
	c.Phase[p].Dur += d
	c.ran |= 1 << p
}

// Carve moves d, measured inside phase from, to phase to and marks to run.
func (c *Clock) Carve(from, to Phase, d time.Duration) {
	c.Phase[from].Dur -= d
	c.Lap(to, d)
}

// Trace renders the clock as a statement's trace: a root named query, noted
// with the statement text and carrying its duration, then one node per
// phase that ran, in phase order — plan noted with the strategy, merge with
// the degree of parallelism and holding one node per worker.
func (c *Clock) Trace(sql, strategy string, dop int, dur time.Duration, workers []Tally) *TraceNode {
	root := &TraceNode{Name: "query", Note: strings.Join(strings.Fields(sql), " "), DurMicros: dur.Microseconds(),
		Children: make([]*TraceNode, 0, numPhases)}
	for p := Phase(0); p < numPhases; p++ {
		if c.ran&(1<<p) == 0 {
			continue
		}
		n := c.Phase[p].node(phaseNames[p], "")
		switch p {
		case PhasePlan:
			n.Note = strategy
		case PhaseMerge:
			n.Note = fmt.Sprintf("dop=%d", dop)
			n.Children = make([]*TraceNode, len(workers))
			for i, w := range workers {
				n.Children[i] = w.node("worker", fmt.Sprintf("w%d", i))
			}
		}
		root.Children = append(root.Children, n)
	}
	return root
}

func (t Tally) node(name, note string) *TraceNode {
	return &TraceNode{Name: name, Note: note, DurMicros: t.Dur.Microseconds(), Counters: t.Counters}
}

// TraceNode is one exported node of a finished trace: the JSON shape the
// wire protocol's trace frame carries and the tree EXPLAIN ANALYZE
// renders.
type TraceNode struct {
	Name      string `json:"name"`
	Note      string `json:"note,omitempty"`
	DurMicros int64  `json:"dur_us"`
	Counters
	Children []*TraceNode `json:"children,omitempty"`
}

// Find returns the first node named name in a pre-order walk (self
// included), or nil.
func (n *TraceNode) Find(name string) *TraceNode {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// Render draws the tree with box-drawing connectors, one line per node:
// name [note], wall time, then the non-zero counters.
func (n *TraceNode) Render() string {
	var b strings.Builder
	n.render(&b, "", "")
	return b.String()
}

func (n *TraceNode) render(b *strings.Builder, prefix, childPrefix string) {
	b.WriteString(prefix)
	b.WriteString(n.Line())
	b.WriteByte('\n')
	for i, c := range n.Children {
		if i == len(n.Children)-1 {
			c.render(b, childPrefix+"└─ ", childPrefix+"   ")
		} else {
			c.render(b, childPrefix+"├─ ", childPrefix+"│  ")
		}
	}
}

// Line renders one node as a single line (no tree connectors).
func (n *TraceNode) Line() string {
	var b strings.Builder
	b.WriteString(n.Name)
	if n.Note != "" {
		fmt.Fprintf(&b, " [%s]", n.Note)
	}
	fmt.Fprintf(&b, "  %s", formatMicros(n.DurMicros))
	if n.Rows > 0 {
		fmt.Fprintf(&b, " rows=%d", n.Rows)
	}
	if n.Batches > 0 {
		fmt.Fprintf(&b, " batches=%d", n.Batches)
	}
	if n.PagesRead > 0 {
		fmt.Fprintf(&b, " pages=%d", n.PagesRead)
	}
	if n.PagesPrefetched > 0 {
		fmt.Fprintf(&b, " prefetched=%d", n.PagesPrefetched)
	}
	if n.PrefetchHits > 0 {
		fmt.Fprintf(&b, " prefetch_hits=%d", n.PrefetchHits)
	}
	if n.Qualify+n.Disqualify+n.Ambivalent > 0 {
		fmt.Fprintf(&b, " buckets=%d/%d/%d(q/d/a)", n.Qualify, n.Disqualify, n.Ambivalent)
	}
	return b.String()
}

// formatMicros renders a duration in human units with short precision.
func formatMicros(us int64) string {
	d := time.Duration(us) * time.Microsecond
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}
