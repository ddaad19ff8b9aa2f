// Package parallel is the intra-query parallel execution subsystem: it
// exploits the paper's central property — buckets are graded (qualifying /
// disqualifying / ambivalent) from their SMAs without touching their pages
// — to make the bucket the unit of parallelism, in the shared-nothing
// partitioned-execution tradition of Gamma and its descendants.
//
// A query runs in three stages:
//
//  1. Partition: every bucket is graded once with the selection SMAs,
//     into runs of equally graded buckets. Disqualifying runs are dropped
//     before dispatch (they would cost a worker nothing but scheduling),
//     and the surviving runs are split into contiguous, page-balanced
//     partitions — skew-resistant because the split weighs pages, not
//     buckets, and contiguous so each worker reads mostly-sequential pages.
//  2. Execute: a context-aware worker pool runs one SMA_Scan or SMA_GAggr
//     pipeline per partition. The first worker error (or a parent context
//     cancel) cancels every sibling at its next bucket or page boundary.
//  3. Merge: the workers' partial aggregates combine into one result
//     (count/sum/min/max merge directly, avg merges as sum+count and is
//     divided last), per-worker ScanStats add up, and the merged groups
//     are emitted in sorted key order, so group-by output is deterministic
//     for every degree of parallelism.
//
// Full scans without usable SMAs parallelize too, by page range instead of
// graded bucket. Projection queries are not parallelized: they stream
// tuples in physical order, which a merge stage would only re-serialize.
//
// Every aggregation pipeline — SMA_GAggr, or hash aggregation above an
// SMA_Scan, a table scan or a memory scan — is built by Source.Pipeline
// over a Unit of the relation. A serial query is that pipeline over the
// whole relation, run inline by the planner with none of the three stages;
// Agg runs it once per partition.
package parallel

import (
	"sma/internal/core"
	"sma/internal/pred"
	"sma/internal/storage"
)

// Partition is one unit of intra-query parallelism: ascending graded runs
// of a relation's buckets, none of them disqualified, together with the
// heap pages they cover (the balance weight).
type Partition struct {
	Runs  []core.Run
	Pages int64
}

// smaAnsweredQualWeight is the balance weight of a qualifying bucket when
// its aggregates come straight from the SMA vectors: a few in-memory SMA
// entries against pageWeight units per heap page a worker must fetch.
const (
	pageWeight            = 64
	smaAnsweredQualWeight = 1
)

// PartitionRuns drops the disqualifying runs and splits the survivors into
// at most dop contiguous partitions balanced by cost, cutting a run where a
// partition fills. The weight of a bucket is its page count — except when
// smaAnswered is set (the SMA_GAggr mode), where qualifying buckets are
// answered from the SMA vectors without touching a page and weigh next to
// nothing, so the split spreads the ambivalent buckets (the real page I/O)
// across workers. Empty partitions are never returned; with fewer surviving
// buckets than workers the result has fewer than dop partitions.
func PartitionRuns(h *storage.HeapFile, runs []core.Run, dop int, smaAnswered bool) []Partition {
	// weigh returns the pages of buckets [lo, hi) graded g and their weight.
	weigh := func(g core.Grade, lo, hi int) (pages, weight int64) {
		first, _ := h.BucketRange(lo)
		_, last := h.BucketRange(hi - 1)
		pages = int64(last-first) + 1
		if smaAnswered && g == core.Qualifies {
			return pages, int64(hi-lo) * smaAnsweredQualWeight
		}
		return pages, pages * pageWeight
	}
	var total int64
	survivors, kept := 0, 0
	for _, r := range runs {
		if r.Grade != core.Disqualifies {
			_, w := weigh(r.Grade, int(r.Lo), int(r.Hi))
			total += w
			survivors += r.Len()
			kept++
		}
	}
	if survivors == 0 {
		return nil
	}
	dop = min(max(dop, 1), survivors)
	// The partitions' runs share one array: the surviving runs, and one
	// more piece for each run a cut splits.
	all := make([]core.Run, 0, kept+dop-1)
	parts := make([]Partition, 0, dop)
	first, pages, cum := 0, int64(0), int64(0)
	for _, r := range runs {
		if r.Grade == core.Disqualifies {
			continue
		}
		// Every bucket of a run but the heap's last weighs the same, unit.
		_, unit := weigh(r.Grade, int(r.Lo), int(r.Lo)+1)
		for lo := int(r.Lo); lo < int(r.Hi); {
			// A partition is cut after the first bucket whose cumulative
			// weight reaches the next of dop equal-width targets; the last
			// partition stays open for the remainder, so exactly the
			// surviving buckets are covered.
			hi, open := int(r.Hi), len(parts) < dop-1
			if open {
				need := total*int64(len(parts)+1) - cum*int64(dop)
				hi = min(hi, lo+max(1, int((need+unit*int64(dop)-1)/(unit*int64(dop)))))
			}
			p, w := weigh(r.Grade, lo, hi)
			all = append(all, core.Run{Lo: int32(lo), Hi: int32(hi), Grade: r.Grade})
			pages, cum = pages+p, cum+w
			if open && cum*int64(dop) >= total*int64(len(parts)+1) {
				parts = append(parts, Partition{Runs: all[first:len(all):len(all)], Pages: pages})
				first, pages = len(all), 0
			}
			lo = hi
		}
	}
	if len(all) > first {
		parts = append(parts, Partition{Runs: all[first:], Pages: pages})
	}
	return parts
}

// PreGrade grades every bucket of h against p and returns one grade per
// bucket: Grader.RunsFor a bucket at a time. This per-bucket form and
// PartitionBuckets serve the benchmark's layer walk (bench/layers.go); the
// engine plans, partitions and scans runs.
func PreGrade(h *storage.HeapFile, g *core.Grader, p pred.Predicate) []core.Grade {
	out := make([]core.Grade, 0, h.NumBuckets())
	for _, r := range g.RunsFor(p, h.NumBuckets()) {
		for range r.Len() {
			out = append(out, r.Grade)
		}
	}
	return out
}

// BucketPartition is a Partition a bucket at a time: Grades[i] grades
// bucket Buckets[i].
type BucketPartition struct {
	Buckets []int
	Grades  []core.Grade
	Pages   int64
}

// PartitionBuckets is PartitionRuns over one grade per bucket of h, with
// each partition's runs listed a bucket at a time.
func PartitionBuckets(h *storage.HeapFile, grades []core.Grade, dop int, smaAnswered bool) []BucketPartition {
	var out []BucketPartition
	for _, p := range PartitionRuns(h, core.RunsOf(nil, grades), dop, smaAnswered) {
		bp := BucketPartition{Pages: p.Pages}
		for _, r := range p.Runs {
			for b := int(r.Lo); b < int(r.Hi); b++ {
				bp.Buckets = append(bp.Buckets, b)
				bp.Grades = append(bp.Grades, r.Grade)
			}
		}
		out = append(out, bp)
	}
	return out
}

// PageRange is a half-open page interval [First, Last) assigned to one
// full-scan worker.
type PageRange struct {
	First, Last storage.PageID
}

// PartitionPages splits the file's pages into at most dop contiguous,
// near-equal ranges for parallel full scans.
func PartitionPages(numPages int64, dop int) []PageRange {
	if numPages <= 0 {
		return nil
	}
	if dop < 1 {
		dop = 1
	}
	if int64(dop) > numPages {
		dop = int(numPages)
	}
	out := make([]PageRange, 0, dop)
	for i := 0; i < dop; i++ {
		first := storage.PageID(numPages * int64(i) / int64(dop))
		last := storage.PageID(numPages * int64(i+1) / int64(dop))
		if first < last {
			out = append(out, PageRange{First: first, Last: last})
		}
	}
	return out
}
