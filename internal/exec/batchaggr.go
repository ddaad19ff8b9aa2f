package exec

import (
	"sma/internal/core"
	"sma/internal/tuple"
)

// BatchGAggr is Dayal's grouping-with-aggregation operator computed by hash
// aggregation over a batch input: the non-SMA baseline of "Query 1 without
// SMAs" (above a BatchTableScan) and the aggregation above a BatchSMAScan.
// Open drains the input batch by batch, folding the selected tuples of each
// batch into the mergeable per-group Partials through one vector program of
// the aggregate arguments (see groupFolder; no allocation per batch). The
// program is the plan's binding when Bound is set, shared by every
// execution and parallel worker; else Open compiles it with BindGAggr. It
// is a pipeline breaker, like SMA_GAggr in the paper, and supports
// KeepPartials for the parallel workers.
type BatchGAggr struct {
	Input   BatchIter
	Specs   []AggSpec
	GroupBy []string
	// KeepPartials makes Open keep the merge-ready per-group state instead
	// of finishing it into rows; retrieve it with Partials before Close.
	KeepPartials bool
	// Bound, when set, is the binding of Specs and GroupBy over the input's
	// schema, made by BindGAggr; Open uses it instead of compiling them.
	Bound *AggBinding

	schema *tuple.Schema
	folder *groupFolder
	out    []Row
	pos    int
	work   Work
}

// NewBatchGAggr creates the operator. schema is the input tuple schema.
func NewBatchGAggr(input BatchIter, schema *tuple.Schema, specs []AggSpec, groupBy []string) *BatchGAggr {
	return &BatchGAggr{Input: input, Specs: specs, GroupBy: groupBy, schema: schema}
}

// Open consumes the entire input and computes all groups.
func (g *BatchGAggr) Open() error {
	b := g.Bound
	if b == nil {
		var err error
		if b, err = BindGAggr(g.schema, nil, g.Specs, g.GroupBy); err != nil {
			return err
		}
	}
	g.folder = newGroupFolder(b.fold, nil)
	g.work = Work{}
	if err := g.work.timed(g.Input.Open); err != nil {
		return err
	}
	defer g.work.timed(g.Input.Close)
	for {
		b, err := g.work.pull(g.Input)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		g.folder.fold(b)
	}
	if !g.KeepPartials {
		g.out = FinishPartials(g.folder.groups, g.Specs, len(g.GroupBy) == 0)
		g.work.Groups = int64(len(g.out))
	}
	g.pos = 0
	return nil
}

// Work reports the time spent in the input scan, the tuples it selected,
// and the groups Open produced.
func (g *BatchGAggr) Work() Work { return g.work }

// Partials returns the merge-ready group states computed by Open. The map
// is owned by the operator and valid until Close.
func (g *BatchGAggr) Partials() map[core.GroupKey]*Partial {
	if g.folder == nil {
		return nil
	}
	return g.folder.groups
}

// Next returns one result group after another.
func (g *BatchGAggr) Next() (Row, bool, error) {
	if g.pos >= len(g.out) {
		return Row{}, false, nil
	}
	r := g.out[g.pos]
	g.pos++
	return r, true, nil
}

// Close drops the hash table.
func (g *BatchGAggr) Close() error {
	g.folder = nil
	g.out = nil
	return nil
}
