// Package core implements Small Materialized Aggregates (SMAs), the paper's
// primary contribution: per-bucket min/max/sum/count aggregates stored in
// flat, sequentially organized SMA-files whose i-th entry corresponds to the
// i-th bucket of consecutive pages of the indexed relation.
//
// The package provides:
//
//   - SMA definitions ("define sma ... select agg(expr) from T group by ...")
//   - typed SMA vectors with the paper's on-disk widths (4-byte dates and
//     counts, 8-byte sums)
//   - grouped SMAs: one SMA-file per group, aligned by bucket, with a
//     presence bitmap
//   - a one-pass bulk builder and two kinds of maintenance: append runs
//     (inserts) and bucket refolds (updates and deletes)
//   - the §3.1 bucket-grading rules (qualifying / disqualifying /
//     ambivalent) including the AND/OR partition algebra, grading through
//     grouped min/max SMAs, and grading through count-group-by-A SMAs
//   - hierarchical SMAs (§4): an in-memory level-2 summary per SMA-file,
//     one entry per 64-bucket presence word, that grades and folds whole
//     words
package core
