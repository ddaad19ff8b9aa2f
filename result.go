package sma

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Result is a fully rendered query result: column names plus rows of
// display strings. It is a convenience for CLIs and examples; programs
// that process values should iterate the streaming Rows cursor instead.
type Result struct {
	Columns  []string
	Rows     [][]string
	Strategy string
}

// Collect drains a streaming cursor into a rendered Result and closes it.
// Aggregates render with integral values trimmed ("4" not "4.0000"),
// dates as "YYYY-MM-DD".
func Collect(rows *Rows) (res *Result, err error) {
	defer func() {
		if cerr := rows.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			res = nil
		}
	}()
	res = &Result{Columns: rows.Columns(), Strategy: rows.Strategy()}
	for rows.Next() {
		out, rerr := rows.RowStrings()
		if rerr != nil {
			return nil, rerr
		}
		res.Rows = append(res.Rows, out)
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// appendValue appends one cursor value rendered for display to dst.
// Aggregates follow the engine's historical formatting (integral floats
// trimmed, else 4 decimals); other floats use the shortest representation.
func appendValue(dst []byte, v any, isAgg bool) []byte {
	switch x := v.(type) {
	case string:
		return append(dst, x...)
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case int32: // date columns
		return append(dst, Date(x).String()...)
	case float64:
		if isAgg {
			if x == float64(int64(x)) {
				return strconv.AppendInt(dst, int64(x), 10)
			}
			return appendAggregate(dst, x)
		}
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	default:
		return fmt.Append(dst, x)
	}
}

// appendAggregate appends x with four decimals to dst: the bytes of
// fmt.Sprintf("%.4f", x), which is x's exact binary value rounded to four
// decimals, half to even. strconv computes that through its multi-precision
// decimal path; here it is one integer product. A normal x is m·2^-s for a
// 53-bit m; with 4 <= s <= 64 (2^-12 <= |x| < 2^49), m·10^4 fits 128 bits
// and q = m·10^4 >> s fits 63, so q is the integer part of |x|·10^4 and the
// s bits shifted out are the exact fraction it drops: rounding q on them
// gives the four decimals exactly. Every other x — zero, subnormals, the
// rest below 2^-12, 2^49 and above, infinities, NaN — is formatted by
// strconv's 'f' path.
func appendAggregate(dst []byte, x float64) []byte {
	fb := math.Float64bits(x)
	s := 1075 - int(fb>>52&0x7ff) // |x| = m·2^-s for a normal x
	if s < 4 || s > 64 {
		return strconv.AppendFloat(dst, x, 'f', 4, 64)
	}
	m := fb&(1<<52-1) | 1<<52
	hi, lo := bits.Mul64(m, 10000)
	q := hi<<(64-s) | lo>>s
	rest, half := lo&(1<<s-1), uint64(1)<<(s-1)
	if rest > half || rest == half && q&1 == 1 {
		q++
	}
	if x < 0 {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, q/10000, 10)
	f := q % 10000
	return append(dst, '.', byte('0'+f/1000), byte('0'+f/100%10), byte('0'+f/10%10), byte('0'+f%10))
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, v := range row {
			if len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	sep := make([]string, len(r.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range r.Rows {
		writeRow(row)
	}
	return b.String()
}
