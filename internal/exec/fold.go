package exec

import (
	"bytes"
	"encoding/binary"

	"sma/internal/core"
)

// groupCacheSize bounds the raw-key probe table. Warehouse group-bys
// (Q1 has four groups) fit comfortably; workloads with more groups fall
// through to the canonical-key map, which stays correct for any count.
const groupCacheSize = 8

// groupState is what a folder keeps per group id: the accumulator for good,
// the rest for the batch being folded.
type groupState struct {
	acc   *Partial
	rows  int32   // selected records of the group in this batch
	first int32   // selection position of the first of them
	cur   float64 // the running value of the aggregate being folded
}

// groupFolder folds the selected records of batches into per-group Partials
// as a handful of vector loops per batch. The aggregate arguments are one
// expr.Program (shared sub-trees computed once); every selected record
// resolves to a small dense group id; and each aggregate then runs as one
// loop over (id, value) pairs into per-id scalars that are loaded from the
// Partials before the batch and stored back after it. Each group receives
// its records in selection order, whatever the batch boundaries, so every
// float result is bit-identical to a tuple-at-a-time fold.
//
// Between fold calls nothing but the id assignment is kept: SMA_GAggr
// advances the same Partials from SMA entries between two ambivalent
// buckets, and whatever it wrote is what the next fold loads. The compiled
// program is the binding's, shared; a folder belongs to one operator, and
// parallel workers each build their own. Its per-record scratch is the
// batch's; its per-group state starts out in arrays inside the folder, so
// a statement that inspects one bucket of a handful of groups allocates
// the folder, nothing else.
type groupFolder struct {
	*foldProgram
	groups map[core.GroupKey]*Partial

	// Group resolution. A record's raw group-column bytes resolve through
	// a small probe table — packed into a uint64 when they fit — and only
	// a miss builds the canonical key and consults the groups map. Two raw
	// keys of one canonical group (two NaN encodings; int64s that round to
	// one float64) meet there and share an id.
	keyBuf   []byte
	probeN   int
	probeAt  int                    // next entry to replace once the table is full
	probeKey [groupCacheSize]uint64 // packed raw keys (rawWidth <= 8)
	probeRaw []byte                 // raw keys of rawWidth bytes each (wider)
	probeID  [groupCacheSize]int32

	gs      []groupState // by id
	touched []int32      // ids with rows > 0, in order of first appearance

	gsArr      [groupCacheSize]groupState
	touchedArr [groupCacheSize]int32
	keyArr     [64]byte
}

// newGroupFolder prepares a folder of the compiled fold p over an existing
// groups map (shared with SMA-side advancement in SMA_GAggr) or a fresh
// one when groups is nil.
func newGroupFolder(p *foldProgram, groups map[core.GroupKey]*Partial) *groupFolder {
	if groups == nil {
		groups = make(map[core.GroupKey]*Partial)
	}
	f := &groupFolder{foldProgram: p, groups: groups}
	f.gs, f.touched, f.keyBuf = f.gsArr[:0], f.touchedArr[:0], f.keyArr[:0]
	if p.rawWidth > 8 {
		f.probeRaw = make([]byte, groupCacheSize*p.rawWidth)
	}
	return f
}

// idOf returns acc's id, assigning the next one at first sight. The id is
// remembered in the Partial and verified against the id table, so a Partial
// that another folder numbered before reads as unnumbered here.
func (f *groupFolder) idOf(acc *Partial) int32 {
	if id := acc.id; int(id) < len(f.gs) && f.gs[id].acc == acc {
		return id
	}
	acc.id = int32(len(f.gs))
	f.gs = append(f.gs, groupState{acc: acc})
	return acc.id
}

// canonicalID resolves record rec of b through its canonical group key:
// the groups map, where SMA-side advancement may have created the group
// already.
func (f *groupFolder) canonicalID(b *Batch, rec int32) int32 {
	t := b.Tuple(rec)
	f.keyBuf = f.gx.AppendKey(f.keyBuf[:0], t)
	acc := f.groups[core.GroupKey(f.keyBuf)]
	if acc == nil {
		acc = newGroupAcc(f.gx.Vals(t), len(f.specs))
		f.groups[core.GroupKey(f.keyBuf)] = acc
	}
	return f.idOf(acc)
}

// probeSlot picks the probe-table entry a missed raw key goes into.
func (f *groupFolder) probeSlot() int {
	if f.probeN < groupCacheSize {
		f.probeN++
		return f.probeN - 1
	}
	e := f.probeAt
	f.probeAt = (e + 1) % groupCacheSize
	return e
}

// touch counts selection position k towards id.
func (f *groupFolder) touch(id int32, k int) {
	g := &f.gs[id]
	if g.rows == 0 {
		f.touched = append(f.touched, id)
		g.first = int32(k)
	}
	g.rows++
}

// resolvePacked fills ids for group columns of at most 8 bytes together:
// the raw keys are gathered a column at a time into one uint64 per
// selected record, then resolved with a repeat check and a linear probe.
func (f *groupFolder) resolvePacked(b *Batch, ids []int32) {
	n := len(ids)
	b.u64 = grow(b.u64, n)
	keys := b.u64
	data, rs, sel := b.data, b.recSize, b.Sel[:n]
	clear(keys)
	for _, reg := range f.regions {
		off := reg.Off
		switch reg.Width {
		case 1:
			for k, r := range sel {
				keys[k] = keys[k]<<8 | uint64(data[int(r)*rs+off])
			}
		case 4:
			for k, r := range sel {
				keys[k] = keys[k]<<32 | uint64(binary.LittleEndian.Uint32(data[int(r)*rs+off:]))
			}
		case 8:
			for k, r := range sel {
				keys[k] = binary.LittleEndian.Uint64(data[int(r)*rs+off:])
			}
		default:
			for k, r := range sel {
				key := keys[k]
				for _, c := range data[int(r)*rs+off : int(r)*rs+off+reg.Width] {
					key = key<<8 | uint64(c)
				}
				keys[k] = key
			}
		}
	}
	last, lastID := uint64(0), int32(-1)
	for k, key := range keys {
		if key != last || lastID < 0 {
			last, lastID = key, -1
			for e := 0; e < f.probeN; e++ {
				if f.probeKey[e] == key {
					lastID = f.probeID[e]
					break
				}
			}
			if lastID < 0 {
				lastID = f.canonicalID(b, sel[k])
				e := f.probeSlot()
				f.probeKey[e], f.probeID[e] = key, lastID
			}
		}
		ids[k] = lastID
		f.touch(lastID, k)
	}
}

// resolveWide fills ids for group columns wider than 8 bytes together,
// comparing the raw bytes against the probe table's.
func (f *groupFolder) resolveWide(b *Batch, ids []int32) {
	w := f.rawWidth
	for k, r := range b.Sel {
		rec := b.data[int(r)*b.recSize:]
		id := int32(-1)
	probe:
		for e := 0; e < f.probeN; e++ {
			raw := f.probeRaw[e*w:]
			for _, reg := range f.regions {
				if !bytes.Equal(rec[reg.Off:reg.Off+reg.Width], raw[:reg.Width]) {
					continue probe
				}
				raw = raw[reg.Width:]
			}
			id = f.probeID[e]
			break
		}
		if id < 0 {
			id = f.canonicalID(b, r)
			e := f.probeSlot()
			raw := f.probeRaw[e*w : e*w : (e+1)*w]
			for _, reg := range f.regions {
				raw = append(raw, rec[reg.Off:reg.Off+reg.Width]...)
			}
			f.probeID[e] = id
		}
		ids[k] = id
		f.touch(id, k)
	}
}

// fold accumulates every selected record of the batch.
func (f *groupFolder) fold(b *Batch) {
	n := len(b.Sel)
	if n == 0 {
		return
	}
	// Phase 1: one group id per selected record, and per touched id the
	// number of its records and the position of the first.
	var ids []int32 // stays nil for a global aggregate: one group, id 0
	if f.gx == nil {
		if len(f.gs) == 0 {
			acc := f.groups[""]
			if acc == nil {
				acc = newGroupAcc(nil, len(f.specs))
				f.groups[""] = acc
			}
			f.idOf(acc)
		}
		f.touched = append(f.touched, 0)
		f.gs[0].rows, f.gs[0].first = int32(n), 0
	} else {
		b.i32 = grow(b.i32, n)
		ids = b.i32
		if f.rawWidth <= 8 {
			f.resolvePacked(b, ids)
		} else {
			f.resolveWide(b, ids)
		}
	}
	// Phase 2: the argument vectors, each shared sub-tree once.
	vecs := f.prog.Eval(&b.f64, b.data, b.recSize, b.Sel, n)
	// Phase 3: one loop per aggregate. Counts are exact integers, so a
	// group's batch total is added in one step.
	gs := f.gs
	for i := range f.specs {
		if f.arg[i] < 0 {
			for _, id := range f.touched {
				gs[id].acc.Aggs[i] += float64(gs[id].rows)
			}
			continue
		}
		vals, c := f.prog.Value(f.arg[i], vecs, n) // vals nil: the argument is the constant c
		fn := f.specs[i].Func
		for _, id := range f.touched {
			g := &gs[id]
			switch {
			case fn == AggSum || fn == AggAvg || g.acc.Seen[i]:
				g.cur = g.acc.Aggs[i]
			case vals == nil:
				g.cur = c
			default:
				// An unseen min/max starts from the group's first value,
				// which the loop then meets again and leaves alone.
				g.cur = vals[g.first]
			}
		}
		switch {
		case len(f.touched) == 1:
			g := &gs[f.touched[0]]
			g.cur = foldOne(fn, g.cur, vals, c, n)
		case vals == nil:
			for _, id := range ids {
				gs[id].cur = step(fn, gs[id].cur, c)
			}
		default:
			foldVec(fn, gs, ids, vals)
		}
		for _, id := range f.touched {
			gs[id].acc.Aggs[i] = gs[id].cur
		}
	}
	for _, id := range f.touched {
		g := &gs[id]
		g.acc.Count += float64(g.rows)
		for i := range g.acc.Seen {
			g.acc.Seen[i] = true
		}
		g.rows = 0
	}
	f.touched = f.touched[:0]
}

// foldVec folds vals into the per-id scalars, record by record in selection
// order.
func foldVec(fn AggFunc, gs []groupState, ids []int32, vals []float64) {
	ids = ids[:len(vals)]
	switch fn {
	case AggMin:
		for k, id := range ids {
			if v := vals[k]; v < gs[id].cur {
				gs[id].cur = v
			}
		}
	case AggMax:
		for k, id := range ids {
			if v := vals[k]; v > gs[id].cur {
				gs[id].cur = v
			}
		}
	default: // AggSum, AggAvg
		for k, id := range ids {
			gs[id].cur += vals[k]
		}
	}
}

// foldOne is the fold of a batch whose records all belong to one group:
// the running value stays in a register.
func foldOne(fn AggFunc, cur float64, vals []float64, c float64, n int) float64 {
	switch {
	case vals == nil:
		for k := 0; k < n; k++ {
			cur = step(fn, cur, c)
		}
	case fn == AggMin:
		for _, v := range vals {
			if v < cur {
				cur = v
			}
		}
	case fn == AggMax:
		for _, v := range vals {
			if v > cur {
				cur = v
			}
		}
	default:
		for _, v := range vals {
			cur += v
		}
	}
	return cur
}

// step folds one value into a running sum, minimum or maximum.
func step(fn AggFunc, cur, v float64) float64 {
	switch {
	case fn == AggMin && v < cur, fn == AggMax && v > cur:
		return v
	case fn == AggMin || fn == AggMax:
		return cur
	default:
		return cur + v
	}
}
