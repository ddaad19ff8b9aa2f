package exec

import (
	"encoding/binary"
	"fmt"
	"math"

	"sma/internal/pred"
	"sma/internal/tuple"
)

// UnsupportedNodeError reports a predicate or expression node the batch
// kernels have no loop for. The node sets of internal/pred and
// internal/expr are closed, so this means a node type was added there
// without its kernel here; operators return it from Open rather than fall
// back to evaluating tuple by tuple.
type UnsupportedNodeError struct {
	Kind string // "predicate" or "expression"
	Node string // the node as it prints
}

func (e *UnsupportedNodeError) Error() string {
	return fmt.Sprintf("exec: no batch kernel for %s node %s", e.Kind, e.Node)
}

// colKind is how a kernel reads a column out of a packed record.
type colKind uint8

const (
	kindI32   colKind = iota // TInt32, TDate
	kindI64                  // TInt64
	kindF64                  // TFloat64
	kindChar1                // CHAR(1), compared as its byte
)

// colRef locates a column within the fixed-width records of a batch.
type colRef struct {
	off  int32
	kind colKind
}

// resolveCol looks name up in s. Only predicates admit CHAR(1) columns.
func resolveCol(s *tuple.Schema, name string, char1 bool) (colRef, error) {
	i := s.ColumnIndex(name)
	if i < 0 {
		return colRef{}, fmt.Errorf("exec: unknown column %q", name)
	}
	c := s.Column(i)
	ref := colRef{off: int32(s.ColumnOffset(i))}
	switch {
	case c.Type == tuple.TInt32 || c.Type == tuple.TDate:
		ref.kind = kindI32
	case c.Type == tuple.TInt64:
		ref.kind = kindI64
	case c.Type == tuple.TFloat64:
		ref.kind = kindF64
	case c.Type == tuple.TChar && c.Len == 1 && char1:
		ref.kind = kindChar1
	default:
		return colRef{}, fmt.Errorf("exec: column %q (type %s) has no batch kernel", name, c.Type)
	}
	return ref, nil
}

// load reads the column from the record starting at rec[0], in the float64
// domain every comparison and expression works in (an int64 beyond 2^53
// rounds, exactly as tuple.Numeric rounds it).
func (c colRef) load(rec []byte) float64 {
	switch c.kind {
	case kindI32:
		return float64(int32(binary.LittleEndian.Uint32(rec[c.off:])))
	case kindI64:
		return float64(int64(binary.LittleEndian.Uint64(rec[c.off:])))
	case kindF64:
		return math.Float64frombits(binary.LittleEndian.Uint64(rec[c.off:]))
	default:
		return float64(rec[c.off])
	}
}

// selNode is one node of a compiled predicate.
type selNode struct {
	op   selOp
	kids []selNode // selAnd, selOr: operands; selNot: the one negated node

	// selAtom: left cmp value, or left cmp right when colRight.
	cmp      pred.CmpOp
	left     colRef
	right    colRef
	colRight bool
	value    float64
}

type selOp uint8

const (
	selTrue selOp = iota
	selAtom
	selAnd
	selOr
	selNot
)

// selProgram is a predicate compiled against one schema: every atom is a
// compare loop over a typed column that narrows a selection vector. It
// holds no per-batch state, but belongs to one operator — parallel workers
// compile their own.
type selProgram struct {
	root selNode
	// depth is the deepest nesting of Or/Not nodes: each level needs a
	// candidate list of its own beside the one it narrows.
	depth int
}

// compileSelect binds p against s and compiles it: what every scan's Open
// does with its predicate. A nil predicate compiles to a nil program, which
// selects every record.
func compileSelect(p pred.Predicate, s *tuple.Schema) (*selProgram, error) {
	if p == nil {
		return nil, nil
	}
	if err := p.Bind(s); err != nil {
		return nil, err
	}
	prog := &selProgram{}
	var err error
	prog.root, prog.depth, err = compileSelNode(p, s)
	if err != nil {
		return nil, err
	}
	return prog, nil
}

func compileSelNode(p pred.Predicate, s *tuple.Schema) (n selNode, depth int, err error) {
	kids := func(ps []pred.Predicate) error {
		n.kids = make([]selNode, len(ps))
		for i, k := range ps {
			var d int
			if n.kids[i], d, err = compileSelNode(k, s); err != nil {
				return err
			}
			depth = max(depth, d)
		}
		return nil
	}
	switch x := p.(type) {
	case pred.True, *pred.True:
		n.op = selTrue
	case *pred.Atom:
		n.op, n.cmp, n.value = selAtom, x.Op, x.Value
		if n.left, err = resolveCol(s, x.Col, true); err != nil {
			return n, 0, err
		}
		if x.RightCol != "" {
			n.colRight = true
			if n.right, err = resolveCol(s, x.RightCol, true); err != nil {
				return n, 0, err
			}
		}
	case *pred.And:
		n.op = selAnd
		err = kids(x.Kids)
	case *pred.Or:
		n.op = selOr
		err = kids(x.Kids)
		depth++
	case *pred.Not:
		n.op = selNot
		err = kids([]pred.Predicate{x.Kid})
		depth++
	default:
		err = &UnsupportedNodeError{Kind: "predicate", Node: fmt.Sprintf("%T(%v)", p, p)}
	}
	return n, depth, err
}

// selectAll marks every record selected.
func (b *Batch) selectAll() {
	b.Sel = grow(b.Sel, b.n)
	for i := range b.Sel {
		b.Sel[i] = int32(i)
	}
}

// selectProg sets the selection vector to the records satisfying p,
// ascending; a nil program selects all.
func (b *Batch) selectProg(p *selProgram) {
	b.selectAll()
	if p == nil || b.n == 0 {
		return
	}
	if p.depth > 0 {
		b.i32 = grow(b.i32, p.depth*b.n)
		b.mark = grow(b.mark, p.depth*b.n)
	}
	b.Sel = p.root.run(b, b.Sel, b.Sel, b.i32, b.mark)
}

// run writes the members of cand that satisfy the node to out, in order, and
// returns the written prefix. out needs room for len(cand) entries and may
// be cand itself: every kernel writes position k only after it has read
// position k. tmp and mark are the scratch of the Or/Not levels from here
// down, one stride of b.n entries each.
func (n *selNode) run(b *Batch, cand, out, tmp []int32, mark []bool) []int32 {
	switch n.op {
	case selAtom:
		if n.colRight {
			return n.selectColCol(b, cand, out)
		}
		return n.selectColConst(b, cand, out)
	case selAnd:
		// Successive narrowing: each conjunct sees only what survived.
		for i := range n.kids {
			cand = n.kids[i].run(b, cand, out, tmp, mark)
			if len(cand) == 0 {
				break
			}
		}
		return cand
	case selOr, selNot:
		// Mark what the operands select — each over the whole candidate
		// list, in a list of this level's own — then keep the marked
		// (Or: a union, ascending, no duplicates) or the unmarked (Not:
		// the complement within the candidates).
		mine, marked := tmp[:b.n], mark[:b.n]
		for i := range n.kids {
			for _, r := range n.kids[i].run(b, cand, mine, tmp[b.n:], mark[b.n:]) {
				marked[r] = true
			}
		}
		keep := n.op == selOr
		k := 0
		out = out[:len(cand)]
		for _, r := range cand {
			m := marked[r]
			marked[r] = false
			out[k] = r
			if m == keep {
				k++
			}
		}
		return out[:k]
	default: // selTrue
		return out[:copy(out[:len(cand)], cand)]
	}
}

// selectColConst is the column-against-constant kernel, one loop per
// storage type. The comparison is pred.CmpOp.Compare itself (it inlines),
// on float64.
func (n *selNode) selectColConst(b *Batch, cand, out []int32) []int32 {
	data, rs, off, op, c := b.data, b.recSize, int(n.left.off), n.cmp, n.value
	out = out[:len(cand)]
	k := 0
	switch n.left.kind {
	case kindI32:
		for _, r := range cand {
			v := float64(int32(binary.LittleEndian.Uint32(data[int(r)*rs+off:])))
			out[k] = r
			if op.Compare(v, c) {
				k++
			}
		}
	case kindI64:
		for _, r := range cand {
			v := float64(int64(binary.LittleEndian.Uint64(data[int(r)*rs+off:])))
			out[k] = r
			if op.Compare(v, c) {
				k++
			}
		}
	case kindF64:
		for _, r := range cand {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[int(r)*rs+off:]))
			out[k] = r
			if op.Compare(v, c) {
				k++
			}
		}
	default:
		for _, r := range cand {
			v := float64(data[int(r)*rs+off])
			out[k] = r
			if op.Compare(v, c) {
				k++
			}
		}
	}
	return out[:k]
}

// selectColCol is the column-against-column kernel (the paper's A <= B
// form); the storage types are resolved per record.
func (n *selNode) selectColCol(b *Batch, cand, out []int32) []int32 {
	data, rs, op := b.data, b.recSize, n.cmp
	out = out[:len(cand)]
	k := 0
	for _, r := range cand {
		rec := data[int(r)*rs:]
		out[k] = r
		if op.Compare(n.left.load(rec), n.right.load(rec)) {
			k++
		}
	}
	return out[:k]
}
