package core

import (
	"fmt"
	"strconv"
	"strings"

	"sma/internal/tuple"
)

// GroupVal is one group-by column value: either a string (CHAR columns) or
// a number (all numeric columns, with dates in day representation).
type GroupVal struct {
	IsStr bool
	Str   string
	Num   float64
}

// StrVal builds a string group value.
func StrVal(s string) GroupVal { return GroupVal{IsStr: true, Str: s} }

// NumVal builds a numeric group value.
func NumVal(f float64) GroupVal { return GroupVal{Num: f} }

// Numeric returns the value in the comparison domain: numbers as-is,
// single-character strings as their byte value (matching pred.CharConst),
// longer strings are not comparable and return NaN-free 0 with ok=false.
func (g GroupVal) Numeric() (float64, bool) {
	if !g.IsStr {
		return g.Num, true
	}
	if len(g.Str) == 1 {
		return float64(g.Str[0]), true
	}
	return 0, false
}

// String renders the value.
func (g GroupVal) String() string {
	if g.IsStr {
		return g.Str
	}
	return strconv.FormatFloat(g.Num, 'g', -1, 64)
}

// key renders the value into a canonical key fragment.
func (g GroupVal) key() string {
	if g.IsStr {
		return "s:" + g.Str
	}
	return "n:" + strconv.FormatFloat(g.Num, 'g', -1, 64)
}

// GroupKey is the canonical string encoding of a tuple of GroupVals. The
// empty key denotes the single implicit group of an ungrouped SMA.
type GroupKey string

// keySep separates group-value fragments; it cannot occur in CHAR data of
// the supported schemas.
const keySep = "\x1f"

// MakeGroupKey encodes a tuple of group values.
func MakeGroupKey(vals []GroupVal) GroupKey {
	if len(vals) == 0 {
		return ""
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.key()
	}
	return GroupKey(strings.Join(parts, keySep))
}

// ParseGroupKey decodes a key back into group values.
func ParseGroupKey(k GroupKey) ([]GroupVal, error) {
	if k == "" {
		return nil, nil
	}
	parts := strings.Split(string(k), keySep)
	vals := make([]GroupVal, len(parts))
	for i, p := range parts {
		switch {
		case strings.HasPrefix(p, "s:"):
			vals[i] = StrVal(p[2:])
		case strings.HasPrefix(p, "n:"):
			f, err := strconv.ParseFloat(p[2:], 64)
			if err != nil {
				return nil, fmt.Errorf("core: bad numeric group key fragment %q: %w", p, err)
			}
			vals[i] = NumVal(f)
		default:
			return nil, fmt.Errorf("core: bad group key fragment %q", p)
		}
	}
	return vals, nil
}

// ColRegion is the byte region one group-by column occupies within a
// fixed-width record.
type ColRegion struct{ Off, Width int }

// Extractor computes group keys from tuples for a fixed column list.
type Extractor struct {
	idx     []int
	types   []tuple.Type
	regions []ColRegion
}

func NewExtractor(s *tuple.Schema, cols []string) (*Extractor, error) {
	g := &Extractor{idx: make([]int, len(cols)), types: make([]tuple.Type, len(cols)), regions: make([]ColRegion, len(cols))}
	for i, c := range cols {
		j := s.ColumnIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("core: unknown group-by column %q", c)
		}
		g.idx[i] = j
		g.types[i] = s.Column(j).Type
		g.regions[i] = ColRegion{Off: s.ColumnOffset(j), Width: s.Column(j).Width()}
	}
	return g, nil
}

// Cols returns the schema column indexes of the group-by columns, in
// group-by order. The batched aggregation uses them to compare raw group
// bytes without building keys.
func (g *Extractor) Cols() []int { return g.idx }

// Regions returns the byte regions of the group-by columns within a packed
// record, in group-by order: what resolves a record's group from its raw
// bytes without decoding a value.
func (g *Extractor) Regions() []ColRegion { return g.regions }

// Vals extracts the group values of t.
func (g *Extractor) Vals(t tuple.Tuple) []GroupVal {
	vals := make([]GroupVal, len(g.idx))
	for i, j := range g.idx {
		if g.types[i] == tuple.TChar {
			vals[i] = StrVal(t.Char(j))
		} else {
			vals[i] = NumVal(t.Numeric(j))
		}
	}
	return vals
}

// Key extracts the canonical group key of t without allocating the value
// slice twice.
func (g *Extractor) Key(t tuple.Tuple) GroupKey {
	return MakeGroupKey(g.Vals(t))
}

// AppendKey appends the canonical group key of t to dst, producing bytes
// identical to MakeGroupKey(g.Vals(t)) without allocating. The batched
// aggregation inner loop builds keys in a reused scratch buffer this way
// and looks groups up via an allocation-free []byte→string map index.
func (g *Extractor) AppendKey(dst []byte, t tuple.Tuple) []byte {
	for i, j := range g.idx {
		if i > 0 {
			dst = append(dst, keySep[0])
		}
		if g.types[i] == tuple.TChar {
			dst = append(dst, 's', ':')
			dst = append(dst, t.CharBytes(j)...)
		} else {
			dst = append(dst, 'n', ':')
			dst = strconv.AppendFloat(dst, t.Numeric(j), 'g', -1, 64)
		}
	}
	return dst
}
