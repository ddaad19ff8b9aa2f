// Package testutil provides shared helpers for the test suites: temporary
// heap files, small canned relations (including the paper's Figure 1
// example), tolerance comparison, and reading and validating a metrics
// exposition.
package testutil

import (
	"math"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"sma/internal/storage"
	"sma/internal/tuple"
)

// NewHeap creates a temporary heap file with the given schema and bucket
// size, cleaned up with the test.
func NewHeap(t testing.TB, schema *tuple.Schema, bucketPages, poolPages int) *storage.HeapFile {
	t.Helper()
	dir := t.TempDir()
	dm, err := storage.OpenDiskManager(filepath.Join(dir, "table.tbl"))
	if err != nil {
		t.Fatalf("open disk manager: %v", err)
	}
	t.Cleanup(func() { dm.Close() })
	pool := storage.NewBufferPool(dm, poolPages)
	h, err := storage.NewHeapFile(pool, schema, bucketPages)
	if err != nil {
		t.Fatalf("new heap file: %v", err)
	}
	return h
}

// Fig1Schema is the single-column schema of the paper's Figure 1 example.
func Fig1Schema() *tuple.Schema {
	return tuple.MustSchema([]tuple.Column{
		{Name: "L_SHIPDATE", Type: tuple.TDate},
	})
}

// Fig1Dates returns the nine shipdates of Figure 1, in physical order:
// bucket 1 = {97-03-11, 97-04-22, 97-02-02}, bucket 2 = {97-04-01,
// 97-05-07, 97-04-28}, bucket 3 = {97-05-02, 97-05-20, 97-06-03}.
func Fig1Dates() []string {
	return []string{
		"1997-03-11", "1997-04-22", "1997-02-02",
		"1997-04-01", "1997-05-07", "1997-04-28",
		"1997-05-02", "1997-05-20", "1997-06-03",
	}
}

// LoadFig1 builds the Figure 1 relation: three buckets of three tuples. The
// schema's record size does not give three tuples per 4K page, so the
// helper uses a padded schema sized to exactly three records per page.
func LoadFig1(t testing.TB) *storage.HeapFile {
	t.Helper()
	// Pad the record so exactly 3 fit into a page.
	schema := tuple.MustSchema([]tuple.Column{
		{Name: "L_SHIPDATE", Type: tuple.TDate},
		{Name: "PAD", Type: tuple.TChar, Len: RecordSize(3) - 4},
	})
	h := NewHeap(t, schema, 1, 64)
	tp := tuple.NewTuple(schema)
	for _, d := range Fig1Dates() {
		tp.SetInt32(0, tuple.MustParseDate(d))
		tp.SetChar(1, "")
		if _, err := h.Append(tp); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if got := h.NumBuckets(); got != 3 {
		t.Fatalf("figure 1 relation has %d buckets, want 3", got)
	}
	return h
}

// PaddedFloatSchema returns a schema with one float64 column "A" padded so
// that exactly perPage records fit in a page. Tests use it to get many
// buckets from few tuples.
func PaddedFloatSchema(t testing.TB, perPage int) *tuple.Schema {
	t.Helper()
	pad := RecordSize(perPage) - 8
	if pad <= 0 {
		t.Fatalf("perPage %d too large", perPage)
	}
	return tuple.MustSchema([]tuple.Column{
		{Name: "A", Type: tuple.TFloat64},
		{Name: "PAD", Type: tuple.TChar, Len: pad},
	})
}

// RecordSize returns the largest record size of which perPage records fit
// in a heap page: the page less its 16-byte header and one delete mark per
// record.
func RecordSize(perPage int) int {
	return (storage.PageSize - 16 - (perPage+7)/8) / perPage
}

// AppendFloats appends values into column A of a heap using a padded or
// plain single-float schema.
func AppendFloats(t testing.TB, h *storage.HeapFile, vals ...float64) {
	t.Helper()
	tp := tuple.NewTuple(h.Schema())
	for _, v := range vals {
		tp.SetFloat64(0, v)
		if _, err := h.Append(tp); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
}

// AlmostEqual compares floats with relative tolerance.
func AlmostEqual(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// WantFloat fails the test if got differs from want beyond tolerance.
func WantFloat(t *testing.T, name string, got, want float64) {
	t.Helper()
	if !AlmostEqual(got, want) {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

// Metric reads one series ("name" or `name{label="v"}`) from a Prometheus
// text exposition; a series that was never touched reads 0.
func Metric(t testing.TB, expo []byte, series string) int64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\S+)$`).FindSubmatch(expo)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatalf("series %s: %v", series, err)
	}
	return int64(v)
}
