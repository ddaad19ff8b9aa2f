package exec

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"sma/internal/core"
	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/tuple"
)

// AggBinding is the part of an aggregation pipeline its plan fixes: the
// aggregate specs validated and compiled against the relation's schema
// into one vector program, with the group columns' extractor and key
// regions; the predicate compiled into selection kernels; and, for
// SMA_GAggr, the aggregate SMAs checked against the specs and every
// SMA-file bound to the query-level group and accumulator slot it
// advances. It is read-only once built, so every execution of a plan and
// every parallel worker of one shares it, and an Open that is handed one
// allocates only its own state: accumulators, the groups map, the folder's
// id tables, the batch and the page stream.
//
// A binding names SMA-files, so it holds only while the SMAs it was bound
// from are neither replaced nor gain a file: in the engine, for the
// database epoch its plan was made at, which every write and every DDL
// statement moves.
//
// An operator built without one binds in its Open through the same
// function, BindSMAGAggr or BindGAggr, so both paths run the same checks
// and compile the same programs.
type AggBinding struct {
	sel  *selProgram // the predicate's kernels; nil selects every record
	fold *foldProgram

	// SMA_GAggr's resolved fold: the query-level groups the SMA-files roll
	// up into, and every SMA-file bound to the accumulator slot it
	// advances. Sources that share a slot and a target (a grouping finer
	// than the query's) are adjacent, in SMA-file order.
	targets []foldTarget
	sources []foldSource
}

// foldTarget is one query-level group that SMA-files contribute to.
type foldTarget struct {
	key  core.GroupKey
	vals []core.GroupVal
}

// foldSource binds one SMA-file to what it advances: slot is the spec
// position, or countSlot for the AVG divisor; kind is the SMA aggregate
// the slot folds.
type foldSource struct {
	gf     *core.GroupFile
	target int32
	slot   int32
	kind   core.AggKind
}

const countSlot = -1

// BindGAggr binds hash aggregation of specs grouped by groupBy over a scan
// of records of schema filtered by p: the scan's selection kernels and the
// fold program BatchGAggr folds its batches with.
func BindGAggr(schema *tuple.Schema, p pred.Predicate, specs []AggSpec, groupBy []string) (*AggBinding, error) {
	fold, err := compileFold(schema, specs, groupBy)
	if err != nil {
		return nil, err
	}
	b := &AggBinding{fold: fold}
	if b.sel, err = compileSelect(p, schema); err != nil {
		return nil, err
	}
	return b, nil
}

// BindSMAGAggr binds SMA_GAggr (see the SMAGAggr fields for the
// parameters): it checks that every spec has an aggregate SMA of the kind
// and over the expression it needs, grouped as the query or finer, and a
// count SMA when any spec is AVG; resolves every SMA-file to the
// query-level group it rolls up into; and compiles the fold the ambivalent
// buckets take and the predicate that selects their records.
func BindSMAGAggr(h *storage.HeapFile, p pred.Predicate, specs []AggSpec, groupBy []string,
	aggSMAs []*core.SMA, countSMA *core.SMA) (*AggBinding, error) {
	schema := h.Schema()
	fold, err := compileFold(schema, specs, groupBy)
	if err != nil {
		return nil, err
	}
	if len(aggSMAs) != len(specs) {
		return nil, fmt.Errorf("exec: %d aggregate SMAs for %d specs", len(aggSMAs), len(specs))
	}
	needCount := false
	files := 0 // SMA-files to bind
	for i := range specs {
		s := aggSMAs[i]
		if s == nil {
			return nil, fmt.Errorf("exec: spec %s has no aggregate SMA", specs[i])
		}
		if want := specs[i].Func.NeededSMAKind(); s.Def.Agg != want {
			return nil, fmt.Errorf("exec: spec %s needs a %s SMA, got %s (%s)", specs[i], want, s.Def.Agg, s.Def.Name)
		}
		if specs[i].Arg != nil && !expr.Equal(specs[i].Arg, s.Def.Expr) {
			return nil, fmt.Errorf("exec: spec %s does not match sma %s over %s",
				specs[i], s.Def.Name, s.Def.ExprString())
		}
		if specs[i].Func == AggAvg {
			needCount = true
		}
		files += s.NumFiles()
	}
	if needCount && countSMA == nil {
		return nil, fmt.Errorf("exec: AVG aggregates require a count SMA")
	}
	if countSMA != nil {
		files += countSMA.NumFiles()
	}
	b := &AggBinding{fold: fold, sources: make([]foldSource, 0, files)}
	index := make(map[core.GroupKey]int32)
	pos := make([]int, len(groupBy))
	for i, s := range aggSMAs {
		if err := b.addSources(s, groupBy, int32(i), specs[i].Func.NeededSMAKind(), index, pos); err != nil {
			return nil, err
		}
	}
	if countSMA != nil {
		if err := b.addSources(countSMA, groupBy, countSlot, core.Count, index, pos); err != nil {
			return nil, err
		}
	}
	if b.sel, err = compileSelect(p, schema); err != nil {
		return nil, err
	}
	return b, nil
}

// addSources validates that s's grouping is equal to or finer than the
// query grouping groupBy and binds each of its SMA-files to slot of the
// query-level group it rolls up into.
func (b *AggBinding) addSources(s *core.SMA, groupBy []string, slot int32, kind core.AggKind,
	index map[core.GroupKey]int32, pos []int) error {
	same := len(s.Def.GroupBy) == len(groupBy) // same columns in the same order
	for i, q := range groupBy {
		found := -1
		for j, c := range s.Def.GroupBy {
			if strings.EqualFold(q, c) {
				found = j
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("exec: sma %s groups by (%s), which does not cover query group-by column %s",
				s.Def.Name, strings.Join(s.Def.GroupBy, ","), q)
		}
		pos[i] = found
		same = same && found == i
	}
	first := len(b.sources)
	err := s.Groups(func(gf *core.GroupFile) error {
		key, vals := gf.Key, gf.Vals
		if !same {
			vals = make([]core.GroupVal, len(pos))
			for i, j := range pos {
				vals[i] = gf.Vals[j]
			}
			key = core.MakeGroupKey(vals)
		}
		t, ok := index[key]
		if !ok {
			t = int32(len(b.targets))
			index[key] = t
			b.targets = append(b.targets, foldTarget{key: key, vals: vals})
		}
		b.sources = append(b.sources, foldSource{gf: gf, target: t, slot: slot, kind: kind})
		return nil
	})
	if !same {
		// Several files may share a target now: make them adjacent,
		// keeping SMA-file order among them.
		added := b.sources[first:]
		sort.SliceStable(added, func(i, j int) bool { return added[i].target < added[j].target })
	}
	return err
}

// selection returns the compiled predicate of a scan: the binding's, or p
// compiled against s when there is no binding.
func (b *AggBinding) selection(p pred.Predicate, s *tuple.Schema) (*selProgram, error) {
	if b != nil {
		return b.sel, nil
	}
	return compileSelect(p, s)
}

// foldProgram is a fold compiled against one schema: the specs validated,
// their arguments one expr.Program (shared sub-trees computed once), and
// the group columns' extractor and raw byte regions. It is read-only once
// built; every groupFolder over it keeps its own per-group state.
type foldProgram struct {
	specs []AggSpec
	gx    *core.Extractor // nil for a global aggregate

	prog expr.Program
	arg  []int32 // per spec: its argument's node, -1 for COUNT(*)

	regions  []core.ColRegion // gx.Regions()
	rawWidth int              // the regions' bytes together
}

// compileFold validates specs against schema and compiles their arguments
// and the group-by columns.
func compileFold(schema *tuple.Schema, specs []AggSpec, groupBy []string) (*foldProgram, error) {
	for i := range specs {
		if err := specs[i].Validate(schema); err != nil {
			return nil, err
		}
	}
	f := &foldProgram{specs: specs, arg: make([]int32, len(specs))}
	if len(groupBy) > 0 {
		var err error
		if f.gx, err = core.NewExtractor(schema, groupBy); err != nil {
			return nil, err
		}
		f.regions = f.gx.Regions()
		for _, reg := range f.regions {
			f.rawWidth += reg.Width
		}
	}
	for i, sp := range specs {
		f.arg[i] = -1
		if sp.Arg == nil || sp.Func == AggCount {
			continue
		}
		var err error
		if f.arg[i], err = f.prog.Add(sp.Arg, schema); err != nil {
			var unsupported *expr.UnsupportedNodeError
			if errors.As(err, &unsupported) {
				err = &UnsupportedNodeError{Kind: "expression", Node: unsupported.Node}
			}
			return nil, err
		}
	}
	return f, nil
}
