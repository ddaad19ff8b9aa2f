package expr

import (
	"encoding/binary"
	"fmt"
	"math"

	"sma/internal/tuple"
)

// UnsupportedNodeError reports an expression node the vector program has no
// kernel for. The node set of this package is closed, so it means a node
// type was added without its loop in Program; callers fail rather than fall
// back to evaluating tuple by tuple.
type UnsupportedNodeError struct {
	Node string // the node as it prints
}

func (e *UnsupportedNodeError) Error() string {
	return "expr: no vector kernel for expression node " + e.Node
}

// progOp is the operation of one node of a Program.
type progOp uint8

const (
	opCol progOp = iota // gather a column, typed by progNode.typ
	opConst
	opAdd // opAdd..opDiv are declared in OpAdd..OpDiv's order
	opSub
	opMul
	opDiv
)

// progNode is one node of a Program.
type progNode struct {
	e    Expr       // the sub-tree the node computes; what sharing compares
	c    float64    // opConst
	off  int        // opCol: the column's offset within a record
	typ  tuple.Type // opCol: how its bytes read
	op   progOp
	l, r int32 // binary: operand nodes, earlier in the list
	vec  int32 // which value vector the node fills; constants fill none
}

// Program is a list of expressions compiled against one schema into a
// post-order node list over float64 vectors, one entry per record, read
// straight from packed fixed-width records. Structurally equal sub-trees
// (Equal) are one node, so Query 1's L_EXTENDEDPRICE*(1-L_DISCOUNT), wanted
// by two sums, and the columns it shares with three more aggregates are
// each computed once per evaluation. Every node performs the float64
// operation its expression node names, on the column value tuple.Numeric
// reads, so a value does not depend on how the tree was shared or folded.
// It is the one expression evaluator of the tree: the scan operators fold
// batches through it, the SMAs their bucket runs and UPDATE its SET
// clauses, and the parser folds constant sub-trees with it.
//
// A Program must not be copied once an expression was added: its first
// nodes live in the value itself, so a statement that compiles a handful
// of aggregates allocates nothing for them.
type Program struct {
	nodes []progNode
	nvec  int
	arr   [12]progNode // Query 1's eight aggregates are nine nodes
}

// Len returns the number of nodes.
func (p *Program) Len() int { return len(p.nodes) }

// Add compiles e against s, reusing the node of an equal sub-tree, and
// returns its node index.
func (p *Program) Add(e Expr, s *tuple.Schema) (int32, error) {
	for i := range p.nodes {
		if Equal(p.nodes[i].e, e) {
			return int32(i), nil
		}
	}
	if p.nodes == nil {
		p.nodes = p.arr[:0]
	}
	n := progNode{e: e, vec: -1}
	switch x := e.(type) {
	case *Col:
		i, err := numericCol(s, x.Name)
		if err != nil {
			return 0, err
		}
		n.op, n.off, n.typ = opCol, s.ColumnOffset(i), s.Column(i).Type
	case *Const:
		n.op, n.c = opConst, x.Value
	case *Binary:
		l, err := p.Add(x.Left, s)
		if err != nil {
			return 0, err
		}
		r, err := p.Add(x.Right, s)
		if err != nil {
			return 0, err
		}
		if x.Op > OpDiv {
			return 0, &UnsupportedNodeError{Node: e.String()}
		}
		n.op, n.l, n.r = opAdd+progOp(x.Op), l, r
		if ln, rn := &p.nodes[l], &p.nodes[r]; ln.op == opConst && rn.op == opConst {
			n.op, n.c = opConst, arith(n.op, ln.c, rn.c)
		}
	default:
		return 0, &UnsupportedNodeError{Node: fmt.Sprintf("%T(%v)", e, e)}
	}
	if n.op != opConst {
		n.vec = int32(p.nvec)
		p.nvec++
	}
	p.nodes = append(p.nodes, n)
	return int32(len(p.nodes) - 1), nil
}

func arith(op progOp, l, r float64) float64 {
	switch op {
	case opAdd:
		return l + r
	case opSub:
		return l - r
	case opMul:
		return l * r
	default:
		return l / r
	}
}

// Eval fills the value vectors for n records of recSize bytes each in data:
// records sel[0:n] when sel is non-nil, the first n otherwise. The vectors
// come out of *scratch, which is grown when too small; vector v is the
// stride [v*n, (v+1)*n) of the result (see Value).
func (p *Program) Eval(scratch *[]float64, data []byte, recSize int, sel []int32, n int) []float64 {
	if cap(*scratch) < p.nvec*n {
		// Grow at least geometrically: evaluations of rising length must
		// not reallocate once each.
		*scratch = make([]float64, max(p.nvec*n, 2*cap(*scratch)))
	}
	vecs := (*scratch)[:p.nvec*n]
	vec := func(nd *progNode) []float64 { return vecs[int(nd.vec)*n : int(nd.vec+1)*n] }
	for i := range p.nodes {
		nd := &p.nodes[i]
		switch nd.op {
		case opConst:
		case opCol:
			if sel != nil {
				gatherSel(vec(nd), data, recSize, sel, nd)
			} else {
				gather(vec(nd), data, recSize, nd)
			}
		default:
			l, r := &p.nodes[nd.l], &p.nodes[nd.r]
			switch {
			case l.op == opConst:
				constOpVec(nd.op, vec(nd), l.c, vec(r))
			case r.op == opConst:
				vecOpConst(nd.op, vec(nd), vec(l), r.c)
			default:
				vecOpVec(nd.op, vec(nd), vec(l), vec(r))
			}
		}
	}
	return vecs
}

// Value returns what node computed in vecs, the result of an Eval over n
// records: its vector, or nil and its constant when it fills none.
func (p *Program) Value(node int32, vecs []float64, n int) (vals []float64, c float64) {
	nd := &p.nodes[node]
	if nd.vec < 0 {
		return nil, nd.c
	}
	return vecs[int(nd.vec)*n : int(nd.vec+1)*n], 0
}

// gatherSel reads one column of the selected records into dst.
func gatherSel(dst []float64, data []byte, rs int, sel []int32, nd *progNode) {
	off := nd.off
	sel = sel[:len(dst)]
	switch nd.typ {
	case tuple.TInt32, tuple.TDate:
		for k, r := range sel {
			dst[k] = float64(int32(binary.LittleEndian.Uint32(data[int(r)*rs+off:])))
		}
	case tuple.TInt64:
		for k, r := range sel {
			dst[k] = float64(int64(binary.LittleEndian.Uint64(data[int(r)*rs+off:])))
		}
	default: // TFloat64; Add admits no CHAR column
		for k, r := range sel {
			dst[k] = math.Float64frombits(binary.LittleEndian.Uint64(data[int(r)*rs+off:]))
		}
	}
}

// gather reads one column of the first len(dst) records into dst.
func gather(dst []float64, data []byte, rs int, nd *progNode) {
	off := nd.off
	switch nd.typ {
	case tuple.TInt32, tuple.TDate:
		for k := range dst {
			dst[k] = float64(int32(binary.LittleEndian.Uint32(data[k*rs+off:])))
		}
	case tuple.TInt64:
		for k := range dst {
			dst[k] = float64(int64(binary.LittleEndian.Uint64(data[k*rs+off:])))
		}
	default:
		for k := range dst {
			dst[k] = math.Float64frombits(binary.LittleEndian.Uint64(data[k*rs+off:]))
		}
	}
}

func vecOpVec(op progOp, dst, l, r []float64) {
	l, r = l[:len(dst)], r[:len(dst)]
	switch op {
	case opAdd:
		for k := range dst {
			dst[k] = l[k] + r[k]
		}
	case opSub:
		for k := range dst {
			dst[k] = l[k] - r[k]
		}
	case opMul:
		for k := range dst {
			dst[k] = l[k] * r[k]
		}
	default:
		for k := range dst {
			dst[k] = l[k] / r[k]
		}
	}
}

func constOpVec(op progOp, dst []float64, l float64, r []float64) {
	r = r[:len(dst)]
	switch op {
	case opAdd:
		for k := range dst {
			dst[k] = l + r[k]
		}
	case opSub:
		for k := range dst {
			dst[k] = l - r[k]
		}
	case opMul:
		for k := range dst {
			dst[k] = l * r[k]
		}
	default:
		for k := range dst {
			dst[k] = l / r[k]
		}
	}
}

func vecOpConst(op progOp, dst, l []float64, r float64) {
	l = l[:len(dst)]
	switch op {
	case opAdd:
		for k := range dst {
			dst[k] = l[k] + r
		}
	case opSub:
		for k := range dst {
			dst[k] = l[k] - r
		}
	case opMul:
		for k := range dst {
			dst[k] = l[k] * r
		}
	default:
		for k := range dst {
			dst[k] = l[k] / r
		}
	}
}
