package core

import (
	"math"
	"math/bits"
)

// FoldRange advances a running aggregate with the entries of buckets
// [lo, hi) in which the group is present, in ascending bucket order: Min
// and Max keep the running extreme (seen says whether acc holds a value
// yet), every other kind adds the entries (sum and count files). It returns
// the new aggregate and whether it holds a value now — seen, or any bucket
// of the range present. Buckets past the file's end count as absent.
//
// This is the inner loop of SMA_GAggr over a run of qualifying buckets: the
// presence bitmap is read a word at a time, an all-absent word is skipped
// and an all-present one runs as a dense loop over the typed entries. A sum
// or count from bucket 0 with acc +0 takes the whole presence words below
// hi from the level-2 summary, which folded them with this very loop in
// this very order, and folds only the tail: the answer is bit-identical.
// Any other start would regroup float additions, so it folds every entry.
func (g *GroupFile) FoldRange(kind AggKind, lo, hi int, acc float64, seen bool) (float64, bool) {
	if lo == 0 && (kind == Sum || kind == Count) && math.Float64bits(acc) == 0 {
		if k := min(hi, g.Present.n) / blockLen; k > 0 {
			b := g.summary()[k-1]
			lo, acc, seen = k*blockLen, b.sum, seen || b.seen
		}
	}
	switch v := g.Vec; v.typ {
	case EInt32:
		return foldRange(kind, v.i32, g.Present, lo, hi, acc, seen)
	case EInt64:
		return foldRange(kind, v.i64, g.Present, lo, hi, acc, seen)
	default:
		return foldRange(kind, v.f64, g.Present, lo, hi, acc, seen)
	}
}

// foldRange is FoldRange over one element type.
func foldRange[T int32 | int64 | float64](kind AggKind, vals []T, present *Bitmap, lo, hi int, acc float64, seen bool) (float64, bool) {
	hi = min(hi, present.n, len(vals))
	for lo < hi {
		end := min(hi, (lo|63)+1)
		m := present.bits(lo, end-lo)
		switch {
		case m == 0:
		case bits.OnesCount64(m) == end-lo:
			acc, seen = foldDense(kind, vals[lo:end], acc, seen)
		default:
			for ; m != 0; m &= m - 1 {
				acc = fold1(kind, acc, seen, float64(vals[lo+bits.TrailingZeros64(m)]))
				seen = true
			}
		}
		lo = end
	}
	return acc, seen
}

// foldDense folds a non-empty stretch of entries that are all present.
func foldDense[T int32 | int64 | float64](kind AggKind, vals []T, acc float64, seen bool) (float64, bool) {
	switch kind {
	case Min, Max:
		for _, x := range vals {
			acc = fold1(kind, acc, seen, float64(x))
			seen = true
		}
	default:
		for _, x := range vals {
			acc += float64(x)
		}
	}
	return acc, true
}

// fold1 folds one entry.
func fold1(kind AggKind, acc float64, seen bool, v float64) float64 {
	switch kind {
	case Min:
		if !seen || v < acc {
			return v
		}
		return acc
	case Max:
		if !seen || v > acc {
			return v
		}
		return acc
	default:
		return acc + v
	}
}
