package parallel_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"sma/internal/engine"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// kernelQuery is an aggregation whose select list exercises what the fold
// kernels distinguish — sub-trees shared between aggregates, constants on
// either side of an operator, a constant-only argument, a zero divisor
// (quantities are positive, so the quotient is +Inf, never NaN: a NaN makes
// min and max depend on the order of the rows, serial or not), min and max
// — under a predicate with Or and Not, grouped by key.
func kernelQuery(key string) string {
	return `select ` + key + `,
       sum(L_EXTENDEDPRICE*(1-L_DISCOUNT)) as DISC_PRICE,
       sum(L_EXTENDEDPRICE*(1-L_DISCOUNT)*(1+L_TAX)) as CHARGE,
       avg(L_DISCOUNT) as AVG_DISC,
       min(2*L_QUANTITY) as MIN_Q2,
       max(L_QUANTITY/4) as MAX_Q4,
       sum(0.1) as TENTHS,
       max(L_QUANTITY/L_DISCOUNT) as MAX_RATIO,
       count(*) as N
from LINEITEM
where L_SHIPDATE <= date '1996-01-01' or not L_QUANTITY < 30
group by ` + key + ` order by ` + key
}

var kernelCutoff = tuple.MustParseDate("1996-01-01")

// kernelReference evaluates kernelQuery over the generated rows in plain Go,
// in physical order — the order a serial scan adds in — keyed by the
// rendered group columns.
func kernelReference(items []tpcd.LineItem, key func(*tpcd.LineItem) string) map[string][]float64 {
	out := map[string][]float64{}
	counts := map[string]float64{}
	for i := range items {
		li := &items[i]
		if !(li.ShipDate <= kernelCutoff || !(li.Quantity < 30)) {
			continue
		}
		k := key(li)
		a := out[k]
		disc := li.ExtendedPrice * (1 - li.Discount)
		q2, q4, ratio := 2*li.Quantity, li.Quantity/4, li.Quantity/li.Discount
		if a == nil {
			a = []float64{0, 0, 0, q2, q4, 0, ratio, 0}
			out[k] = a
		}
		a[0] += disc
		a[1] += disc * (1 + li.Tax)
		a[2] += li.Discount
		if q2 < a[3] {
			a[3] = q2
		}
		if q4 > a[4] {
			a[4] = q4
		}
		a[5] += 0.1
		if ratio > a[6] {
			a[6] = ratio
		}
		a[7]++
		counts[k]++
	}
	for k, a := range out {
		a[2] /= counts[k]
	}
	return out
}

// TestKernelQueriesSerialAndParallel runs kernelQuery grouped by a CHAR(1)
// pair (two packed bytes), by L_SUPPKEY (more groups than the probe table
// holds), by (L_SHIPDATE, L_LINENUMBER) (eight packed bytes) and by
// (L_ORDERKEY, L_LINENUMBER) (twelve bytes: a wide key), on one engine per
// batch size — one page, 64 and 1 024 rows — at dop 1 and 2. The serial
// answer must equal the plain-Go reference bit for bit — same values, same
// addition order — and the parallel one to the last few ulps (partitions
// regroup the sums). Under -race this is also the check that the workers'
// compiled programs and scratch are their own.
func TestKernelQueriesSerialAndParallel(t *testing.T) {
	const sf = 0.002
	items := tpcd.GenLineItems(tpcd.Config{ScaleFactor: sf, Seed: 1998, Order: tpcd.OrderShuffled})
	cases := []struct {
		key    string
		ncols  int
		render func(*tpcd.LineItem) string
	}{
		{"L_RETURNFLAG, L_LINESTATUS", 2, func(li *tpcd.LineItem) string {
			return fmt.Sprint([]any{string(li.ReturnFlag), string(li.LineStatus)})
		}},
		{"L_SUPPKEY", 1, func(li *tpcd.LineItem) string { return fmt.Sprint([]any{int64(li.SuppKey)}) }},
		{"L_SHIPDATE, L_LINENUMBER", 2, func(li *tpcd.LineItem) string {
			return fmt.Sprint([]any{li.ShipDate, int64(li.LineNumber)})
		}},
		{"L_ORDERKEY, L_LINENUMBER", 2, func(li *tpcd.LineItem) string {
			return fmt.Sprint([]any{li.OrderKey, int64(li.LineNumber)})
		}},
	}
	wants := make([]map[string][]float64, len(cases))
	for i, tc := range cases {
		if wants[i] = kernelReference(items, tc.render); len(wants[i]) < 4 {
			t.Fatalf("group by %s: %d groups in the reference", tc.key, len(wants[i]))
		}
	}
	for _, batch := range []int{1, 64, 1024} {
		db := newLineItemDB(t, sf, tpcd.OrderShuffled, nil, engine.Options{BatchSize: batch})
		for i, tc := range cases {
			want := wants[i]
			for _, dop := range []int{1, 2} {
				what := fmt.Sprintf("group by %s, batch %d, dop %d", tc.key, batch, dop)
				cur, err := db.QueryContext(context.Background(), kernelQuery(tc.key), engine.WithDOP(dop))
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				seen := 0
				for {
					row, ok, err := cur.Next()
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if !ok {
						break
					}
					seen++
					k := fmt.Sprint(row[:tc.ncols])
					w, ok := want[k]
					if !ok {
						t.Fatalf("%s: group %s is not in the reference (it has e.g. %s)", what, k, anyKey(want))
					}
					for j, wv := range w {
						g, ok := row[tc.ncols+j].(float64)
						if !ok {
							t.Fatalf("%s: group %s column %d is a %T", what, k, j, row[tc.ncols+j])
						}
						same := math.Float64bits(g) == math.Float64bits(wv) || g != g && wv != wv
						if dop > 1 && !same {
							same = math.Abs(g-wv) <= 1e-9*math.Max(1, math.Abs(wv))
						}
						if !same {
							t.Errorf("%s: group %s column %d = %v, want %v", what, k, j, g, wv)
						}
					}
				}
				if err := cur.Close(); err != nil {
					t.Fatal(err)
				}
				if seen != len(want) {
					t.Errorf("%s: %d groups, want %d", what, seen, len(want))
				}
				if strat := cur.Plan().StrategyName(); strat != "FullScan+GAggr" {
					t.Fatalf("%s: strategy %s", what, strat)
				}
			}
		}
	}
}

func anyKey(m map[string][]float64) string {
	for k := range m {
		return k
	}
	return ""
}
