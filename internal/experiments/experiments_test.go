package experiments

import (
	"strings"
	"testing"

	"sma/internal/core"
	"sma/internal/tpcd"
)

// tinyCfg returns a fast configuration for integration-testing every
// experiment driver (no simulated latency: shapes are asserted on page and
// bucket counts, which are deterministic).
func tinyCfg() Config {
	return Config{SF: 0.001, Seed: 77}
}

func newTestEnv(t *testing.T, cfg Config) *Env {
	t.Helper()
	e, err := NewEnv(cfg)
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestEnvBuildsAllSMAs: the eight Fig.-4 SMAs with 26 SMA-files.
func TestEnvBuildsAllSMAs(t *testing.T) {
	e := newTestEnv(t, tinyCfg())
	if len(e.SMAs) != 8 {
		t.Fatalf("SMAs = %d, want 8", len(e.SMAs))
	}
	files := 0
	for _, s := range e.SMAs {
		files += s.NumFiles()
		if err := s.Verify(e.LineItem); err != nil {
			t.Errorf("%v", err)
		}
	}
	// 2 ungrouped (min, max) + 6 grouped x 4 groups = 26, the paper's count.
	if files != 26 {
		t.Errorf("SMA-files = %d, want 26 (\"As a total there will be 26 SMA-files\")", files)
	}
}

// TestE1ShapesMatchPaper: grouped sums are twice the pages of the grouped
// count (8-byte vs 4-byte entries), min/max are 1/4 of count (1 file vs 4).
func TestE1ShapesMatchPaper(t *testing.T) {
	cfg := tinyCfg()
	cfg.SF = 0.01 // enough buckets that page rounding doesn't dominate
	e := newTestEnv(t, cfg)
	r := RunE1(e)
	if len(r.Stats) != 8 {
		t.Fatalf("stats = %d", len(r.Stats))
	}
	byName := map[string]SMAStat{}
	for _, s := range r.Stats {
		byName[s.Name] = s
	}
	if qty, cnt := byName["qty"].Pages, byName["count"].Pages; qty < cnt || qty > 2*cnt+4 {
		t.Errorf("sum SMA pages %d vs count %d: want ≈2x (8B vs 4B entries)", qty, cnt)
	}
	if mn, cnt := byName["min"].Pages, byName["count"].Pages; mn*3 > cnt {
		t.Errorf("ungrouped min (%dp) should be ≈1/4 of grouped count (%dp)", mn, cnt)
	}
	// The paper's headline: all SMAs ≈ 4% of the relation.
	if r.SMAPct < 2 || r.SMAPct > 7 {
		t.Errorf("SMA total = %.2f%% of relation, paper says ≈4%%", r.SMAPct)
	}
	if !strings.Contains(r.Render(), "extdistax") {
		t.Errorf("render incomplete")
	}
}

// TestE2BTreeDwarfsSMAs: the B+-tree is several times the SMA total.
func TestE2BTreeDwarfsSMAs(t *testing.T) {
	cfg := tinyCfg()
	cfg.SF = 0.01
	e := newTestEnv(t, cfg)
	r, err := RunE2(e)
	if err != nil {
		t.Fatal(err)
	}
	if r.SizeRatio < 3 {
		t.Errorf("B+-tree/SMA ratio = %.1f, paper has ≈6.8x", r.SizeRatio)
	}
	if r.BTreeMB <= 0 || r.SMAMB <= 0 {
		t.Errorf("sizes not measured: %+v", r)
	}
}

// TestE3CubeModel: the measured SMA bytes stay millions of times below the
// 3-dim cube model.
func TestE3CubeModel(t *testing.T) {
	e := newTestEnv(t, tinyCfg())
	r, err := RunE3(e)
	if err != nil {
		t.Fatal(err)
	}
	if r.CubeBytes[2] != 2556.0*2556*2556*4*48 {
		t.Errorf("3-dim cube model = %g", r.CubeBytes[2])
	}
	if r.SMAAllDatesMB <= 0 || r.ExtraDateMB <= 0 {
		t.Errorf("SMA sizes missing: %+v", r)
	}
	if !strings.Contains(r.Render(), "2985.95 GB") {
		t.Errorf("render should cite the paper's figure")
	}
}

// TestE4SpeedupShape: on sorted data the SMA plan reads orders of magnitude
// fewer pages than the scan, and warm runs read none.
func TestE4SpeedupShape(t *testing.T) {
	cfg := tinyCfg()
	cfg.SF = 0.005 // enough pages that the 26-file page floor doesn't dominate
	cfg.Order = tpcd.OrderSorted
	e := newTestEnv(t, cfg)
	r, err := RunE4(e, 90)
	if err != nil {
		t.Fatal(err)
	}
	if r.Groups != 4 {
		t.Errorf("Q1 groups = %d", r.Groups)
	}
	if r.NoSMAPage == 0 {
		t.Fatalf("baseline read no pages")
	}
	if r.ColdPage*10 > r.NoSMAPage {
		t.Errorf("cold SMA pages %d should be ≤1/10 of scan pages %d", r.ColdPage, r.NoSMAPage)
	}
	if r.WarmPage != 0 {
		t.Errorf("warm run read %d pages, want 0", r.WarmPage)
	}
	if r.Stats.Ambivalent > 1 {
		t.Errorf("sorted data: %d ambivalent buckets", r.Stats.Ambivalent)
	}
}

// TestE5ModelBreakeven: the modeled curves cross near the paper's 25%.
func TestE5ModelBreakeven(t *testing.T) {
	r, err := RunE5(tinyCfg(), 90, []float64{0, 0.1, 0.2, 0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 5 {
		t.Fatalf("points = %d", len(r.Points))
	}
	if r.ModelBreakeven < 0.15 || r.ModelBreakeven > 0.35 {
		t.Errorf("modeled breakeven = %.2f, paper has ≈0.25", r.ModelBreakeven)
	}
	if r.ModelMisusePct < 0 || r.ModelMisusePct > 15 {
		t.Errorf("modeled misuse overhead = %.1f%%", r.ModelMisusePct)
	}
	for _, p := range r.Points {
		if p.ModelNoSMA <= 0 || p.ModelSMA <= 0 {
			t.Errorf("model costs missing at frac %.2f", p.Frac)
		}
	}
}

// TestE6Walkthrough: the Figure 1 text contains the paper's values.
func TestE6Walkthrough(t *testing.T) {
	out, err := RunE6(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"97-02-02", "97-05-07", "97-06-03", "qualifies", "ambivalent", "disqualifies", "count(*) = 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("E6 output missing %q:\n%s", want, out)
		}
	}
}

// TestE7ClusteringOrdering: ambivalence must increase from sorted through
// diagonal to shuffled, the Fig.-2 story.
func TestE7ClusteringOrdering(t *testing.T) {
	r, err := RunE7(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	byOrder := map[tpcd.Order]E7Row{}
	for _, row := range r.Rows {
		byOrder[row.Order] = row
	}
	sorted, diag, shuf := byOrder[tpcd.OrderSorted], byOrder[tpcd.OrderDiagonal], byOrder[tpcd.OrderShuffled]
	if !(sorted.AmbivalentPct <= diag.AmbivalentPct && diag.AmbivalentPct < shuf.AmbivalentPct) {
		t.Errorf("ambivalence ordering violated: sorted %.1f, diagonal %.1f, shuffled %.1f",
			sorted.AmbivalentPct, diag.AmbivalentPct, shuf.AmbivalentPct)
	}
	if !(sorted.MeanSpanDays < diag.MeanSpanDays && diag.MeanSpanDays < shuf.MeanSpanDays) {
		t.Errorf("span ordering violated: %v", r.Rows)
	}
	if r.Scatter == "" || !strings.Contains(r.Scatter, "x") {
		t.Errorf("diagonal scatter missing")
	}
}

// TestE8BucketTradeoff: SMA pages fall (or stay flat at the page floor) as
// buckets grow while ambivalent pages rise.
func TestE8BucketTradeoff(t *testing.T) {
	cfg := tinyCfg()
	cfg.SF = 0.005
	r, err := RunE8(cfg, 90, []int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0].SMAPages < r.Rows[2].SMAPages {
		t.Errorf("SMA pages should not grow with bucket size: %v", r.Rows)
	}
	if r.Rows[2].AmbivalentPct < r.Rows[0].AmbivalentPct {
		t.Errorf("ambivalence should grow with bucket size: %v", r.Rows)
	}
}

// TestE9HierarchySaves: the level-2 summary decides all but one full
// presence word of Query 1's shipdate atom on diagonal data, so grading
// reads few level-1 entries.
func TestE9HierarchySaves(t *testing.T) {
	cfg := tinyCfg()
	cfg.SF = 0.005
	cfg.Order = tpcd.OrderDiagonal
	r := RunE9(newTestEnv(t, cfg), 90)
	if r.WordsDecided != 14 || r.Words != 15 || r.L1Read != 72 || r.L1Total != 968 {
		t.Errorf("%d of %d words decided, %d of %d level-1 entries read; want 14 of 15 and 72 of 968",
			r.WordsDecided, r.Words, r.L1Read, r.L1Total)
	}
	if r.SavedPct() < 50 {
		t.Errorf("level 2 saved only %.1f%% of level-1 reads", r.SavedPct())
	}
}

// TestE10SemiJoinPrunes: most LINEITEM buckets are pruned for the narrow S,
// and the reduced plan selects exactly the rows a nested-loop semi-join
// over the generated rows finds.
func TestE10SemiJoinPrunes(t *testing.T) {
	cfg := tinyCfg()
	cfg.SF = 0.005
	r, err := RunE10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.BucketsPruned*2 < r.BucketsTotal {
		t.Errorf("pruned %d of %d buckets; expected a majority", r.BucketsPruned, r.BucketsTotal)
	}
	if r.SelectedRows <= 0 {
		t.Errorf("semi-join selected nothing")
	}
	if r.SMAPagesRead >= r.ScanPages {
		t.Errorf("SMA plan read %d pages, scan %d", r.SMAPagesRead, r.ScanPages)
	}

	gen := tpcd.Config{ScaleFactor: cfg.SF, Seed: cfg.Seed}
	var s []int32
	for _, o := range tpcd.GenOrders(gen) {
		if o.OrderDate <= e10Cut {
			s = append(s, o.OrderDate)
		}
	}
	want := 0
	for _, li := range tpcd.GenLineItems(gen) {
		for _, b := range s {
			if li.ShipDate <= b {
				want++
				break
			}
		}
	}
	if r.SelectedRows != want {
		t.Errorf("SMA semi-join selected %d rows, nested loop %d", r.SelectedRows, want)
	}
}

// TestAmbivalentFracPlanting: the Fig.-5 knob plants the requested
// fraction of ambivalent buckets (±1 bucket for the sort boundary).
func TestAmbivalentFracPlanting(t *testing.T) {
	for _, frac := range []float64{0.1, 0.3} {
		cfg := tinyCfg()
		cfg.SF = 0.005
		cfg.Order = tpcd.OrderSorted
		cfg.AmbivalentFrac = frac
		e := newTestEnv(t, cfg)
		counts := core.CountGrades(e.Grader().GradeAll(Q1Pred(1265)))
		got := counts.AmbivalentFrac()
		if got < frac-0.02 || got > frac+0.02 {
			t.Errorf("planted %.2f, measured %.3f", frac, got)
		}
	}
}

// TestE11AccessPaths: on uniform data at 20% selectivity the non-clustered
// index must read more pages than the sequential scan (the intro's "turn
// sequential I/O into random I/O" argument), while the SMA scan stays at or
// below scan cost everywhere.
func TestE11AccessPaths(t *testing.T) {
	cfg := tinyCfg()
	cfg.SF = 0.005 // the table must exceed the pool for random fetches to miss
	r, err := RunE11(cfg, []float64{0.01, 0.20})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Order == tpcd.OrderSpec && row.Selectivity == 0.20 {
			if row.IndexPages <= row.ScanPages {
				t.Errorf("index at 20%% on uniform data read %d pages, scan %d — expected index to lose",
					row.IndexPages, row.ScanPages)
			}
		}
		if row.SMAPages > row.ScanPages+50 {
			t.Errorf("%s sel %.0f%%: SMA read %d pages, scan %d — SMA scan should never lose badly",
				row.Order, 100*row.Selectivity, row.SMAPages, row.ScanPages)
		}
		if row.Order == tpcd.OrderDiagonal && row.SMAPages*2 > row.ScanPages {
			t.Errorf("diagonal data: SMA pages %d should be far below scan %d", row.SMAPages, row.ScanPages)
		}
	}
}
