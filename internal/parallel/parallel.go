// Package parallel is the intra-query parallel execution subsystem: it
// exploits the paper's central property — buckets are graded (qualifying /
// disqualifying / ambivalent) from their SMAs without touching their pages
// — to make the bucket the unit of parallelism, in the shared-nothing
// partitioned-execution tradition of Gamma and its descendants.
//
// A query runs in three stages:
//
//  1. Partition: every bucket is graded once with the selection SMAs.
//     Disqualifying buckets are dropped before dispatch (they would cost a
//     worker nothing but scheduling), and the surviving buckets are split
//     into contiguous, page-balanced partitions — skew-resistant because
//     the split weighs pages, not buckets, and contiguous so each worker
//     reads mostly-sequential pages.
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
	"sma/internal/exec"
	"sma/internal/pred"
	"sma/internal/storage"
)

// Partition is one unit of intra-query parallelism: an ascending run of a
// relation's buckets together with their pre-computed grades and the heap
// pages they cover (the balance weight).
type Partition struct {
	Buckets []int
	Grades  []core.Grade
	Pages   int64
}

// PreGrade grades every bucket of h once against p, in memory, using the
// grader's SMA vectors (see exec.GradeBuckets: one GradeAll pass padded to
// the heap's bucket count). A nil predicate grades every bucket qualifying.
// The result is shared by the partitioner and the partition workers, so
// no bucket is graded twice.
func PreGrade(h *storage.HeapFile, g *core.Grader, p pred.Predicate) []core.Grade {
	return exec.GradeBuckets(g, p, nil, h.NumBuckets())
}

// smaAnsweredQualWeight is the balance weight of a qualifying bucket when
// its aggregates come straight from the SMA vectors: a few in-memory SMA
// entries against pageWeight units per heap page a worker must fetch.
const (
	pageWeight            = 64
	smaAnsweredQualWeight = 1
)

// PartitionBuckets drops disqualifying buckets and splits the survivors
// into at most dop contiguous partitions balanced by cost. The weight of
// a bucket is its page count — except when smaAnswered is set (the
// SMA_GAggr mode), where qualifying buckets are answered from the SMA
// vectors without touching a page and weigh next to nothing, so the split
// spreads the ambivalent buckets (the real page I/O) across workers.
// Empty partitions are never returned; with fewer surviving buckets than
// workers the result has fewer than dop partitions.
func PartitionBuckets(h *storage.HeapFile, grades []core.Grade, dop int, smaAnswered bool) []Partition {
	if dop < 1 {
		dop = 1
	}
	type survivor struct {
		bucket int
		grade  core.Grade
		pages  int64
		weight int64
	}
	var survivors []survivor
	var totalWeight int64
	for b, g := range grades {
		if g == core.Disqualifies {
			continue
		}
		first, last := h.BucketRange(b)
		pages := int64(last-first) + 1
		weight := pages * pageWeight
		if smaAnswered && g == core.Qualifies {
			weight = smaAnsweredQualWeight
		}
		survivors = append(survivors, survivor{bucket: b, grade: g, pages: pages, weight: weight})
		totalWeight += weight
	}
	if len(survivors) == 0 {
		return nil
	}
	if dop > len(survivors) {
		dop = len(survivors)
	}
	parts := make([]Partition, 0, dop)
	cur := Partition{}
	var cum int64
	for _, s := range survivors {
		cur.Buckets = append(cur.Buckets, s.bucket)
		cur.Grades = append(cur.Grades, s.grade)
		cur.Pages += s.pages
		cum += s.weight
		// Cut when the cumulative weight crosses the next of dop
		// equal-width targets, keeping the last partition open for the
		// remainder so exactly the surviving buckets are covered.
		if len(parts) < dop-1 && cum*int64(dop) >= totalWeight*int64(len(parts)+1) {
			parts = append(parts, cur)
			cur = Partition{}
		}
	}
	if len(cur.Buckets) > 0 {
		parts = append(parts, cur)
	}
	return parts
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
