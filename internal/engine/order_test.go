package engine_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"sma/internal/engine"
)

// TestAggregateRowsInGroupOrder: an aggregation's rows come out ordered by
// their group values as numbers (9 before 10), serially and over two
// workers, under HAVING and under LIMIT. The aggregate emits them in that
// order; no sort runs after it.
func TestAggregateRowsInGroupOrder(t *testing.T) {
	db, err := engine.Open(t.TempDir(), engine.Options{BucketPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	if _, err := db.ExecContext(ctx, "create table G (K int, V float64)"); err != nil {
		t.Fatal(err)
	}
	// 12 groups over about five pages, each group on every page.
	for stmt := 0; stmt < 12; stmt++ {
		var b strings.Builder
		b.WriteString("insert into G values ")
		for r := 0; r < 100; r++ {
			if r > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d)", 1+(stmt*100+r)%12, r)
		}
		if _, err := db.ExecContext(ctx, b.String()); err != nil {
			t.Fatal(err)
		}
	}
	keys := func(from, to int) []string {
		var out []string
		for k := from; k <= to; k++ {
			out = append(out, fmt.Sprint(k))
		}
		return out
	}
	for _, tc := range []struct {
		sql  string
		want []string
	}{
		{"select K, count(*) from G group by K", keys(1, 12)},
		{"select K, count(*) from G group by K having K >= 9", keys(9, 12)},
		{"select K, sum(V) from G where K > 8 group by K limit 2", keys(9, 10)},
	} {
		for _, dop := range []int{1, 2} {
			res, err := engine.Collect(db, tc.sql, engine.WithDOP(dop))
			if err != nil {
				t.Fatalf("%s (dop %d): %v", tc.sql, dop, err)
			}
			var got []string
			for _, row := range res.Rows {
				got = append(got, row[0])
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("%s (dop %d): groups %v, want %v", tc.sql, dop, got, tc.want)
			}
		}
	}
}
