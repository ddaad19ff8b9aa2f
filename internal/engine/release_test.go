package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"sma/internal/tuple"
)

// TestStalledAggregateCursorLetsWritersIn opens an aggregate cursor of each
// strategy, serial and with two workers, and never reads it: an INSERT
// under a 2 s context must still commit, and a following count(*) answer,
// while it stays open. The stalled cursor then hands out the rows its Open
// computed, before the INSERT.
func TestStalledAggregateCursorLetsWritersIn(t *testing.T) {
	db, err := Open(t.TempDir(), Options{BucketPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	day := func(d int) string { return tuple.FormatDate(tuple.DateFromYMD(2024, 1, 1) + int32(d)) }
	vals := make([]string, 270)
	for i := range vals {
		vals[i] = fmt.Sprintf("(date '%s', '%c', %d.5, 'x')", day(i/3), 'A'+i%3, i)
	}
	for _, sql := range []string{
		"create table T (D date, K char(1), V float64, PAD char(400))",
		"insert into T values " + strings.Join(vals, ", "),
		"define sma dmin select min(D) from T",
		"define sma dmax select max(D) from T",
		"define sma cnt select count(*) from T group by K",
		"define sma sv select sum(V) from T group by K",
	} {
		if _, err := db.ExecContext(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}

	// within runs fn, which must be done in 3 s; past that, the cursor is
	// closed, which lets fn finish, and the test fails.
	within := func(what string, cur *Cursor, fn func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- fn() }()
		select {
		case err := <-done:
			if err != nil {
				cur.Close()
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(3 * time.Second):
			cur.Close()
			<-done
			t.Fatalf("%s waited behind an aggregate cursor nobody reads", what)
		}
	}
	inserts := 0
	for _, q := range []struct{ sql, strategy string }{
		{"select K, count(*), sum(V) from T where D <= date '2024-01-20' group by K", "SMA_GAggr"},
		{"select K, max(V) from T where D <= date '2024-01-05' group by K", "SMA_Scan+GAggr"},
		{"select K, count(*) from T where V >= 100 group by K", "FullScan+GAggr"},
	} {
		for _, dop := range []int{1, 2} {
			want := runCached(t, db, q.sql).rows
			cur, err := db.QueryContext(ctx, q.sql, WithDOP(dop))
			if err != nil {
				t.Fatal(err)
			}
			if got := cur.Plan().StrategyName(); got != q.strategy || cur.Plan().DOP != dop {
				cur.Close()
				t.Fatalf("%s: planned %s at dop %d, want %s at dop %d", q.sql, got, cur.Plan().DOP, q.strategy, dop)
			}
			what := fmt.Sprintf("%s at dop %d", q.strategy, dop)
			within("an INSERT beside "+what, cur, func() error {
				ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
				defer cancel()
				inserts++ // a new maximum each time
				_, err := db.ExecContext(ctx, fmt.Sprintf("insert into T values (date '2024-01-02', 'A', %d.5, 'y')", 1000+inserts))
				return err
			})
			within("a count(*) beside "+what, cur, func() error {
				_, err := Collect(db, "select count(*) from T")
				return err
			})
			var rows []string
			for {
				vals, ok, err := cur.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				rows = append(rows, fmt.Sprint(vals...))
			}
			if got := strings.Join(rows, "\n"); got != want {
				t.Errorf("%s: the stalled cursor answered\n%s\nbefore the INSERT\n%s", what, got, want)
			}
			if now := runCached(t, db, q.sql).rows; now == want {
				t.Errorf("%s: the INSERT changed no answer: not a test", what)
			}
		}
	}
}
