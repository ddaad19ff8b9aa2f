package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// blockLen is the number of buckets one level-2 summary entry covers: the
// buckets of one presence word.
const blockLen = 64

// block is one level-2 summary entry: what an SMA-file's level 1 says
// about the buckets of one presence word.
type block struct {
	// lo and hi are the least and the greatest of the block's present
	// entries (+Inf and -Inf when none is present); nan marks a present
	// NaN entry, which neither bounds.
	lo, hi float64
	nan    bool
	// sum and seen are the fold of every bucket up to the block's end from
	// the identity: what foldRange(Sum, 0, end, 0, false) returns.
	sum  float64
	seen bool
}

// summary is an SMA-file's level-2 summary, one block per presence word. It
// is derived from level 1, held in memory only and never persisted. Every
// change to level 1 lowers the watermark in O(1) (GroupFile.invalidate);
// the first reader after a change extends the summary from the watermark
// under mu. Writers change level 1 only while no reader runs, so a settled
// summary is read without the lock.
type summary struct {
	mu     sync.Mutex
	valid  atomic.Int64 // blocks[:valid] are current
	blocks []block
}

// invalidate records that level 1 changed at bucket b: the block of b and
// every later block's sum may be stale.
func (g *GroupFile) invalidate(b int) {
	if k := int64(b / blockLen); g.l2.valid.Load() > k {
		g.l2.valid.Store(k)
	}
}

// summary returns the level-2 summary of g, one block per presence word of
// level 1, extending it first from the watermark if level 1 changed since
// the last reader.
func (g *GroupFile) summary() []block {
	nb := (g.Present.n + blockLen - 1) / blockLen
	if int(g.l2.valid.Load()) >= nb {
		return g.l2.blocks[:nb]
	}
	g.l2.mu.Lock()
	defer g.l2.mu.Unlock()
	if k := int(g.l2.valid.Load()); k < nb {
		g.l2.blocks = g.deriveBlocks(g.l2.blocks[:k], nb)
		g.l2.valid.Store(int64(nb))
	}
	return g.l2.blocks[:nb]
}

// deriveBlocks appends the blocks from len(blocks) up to nb, derived from
// level 1.
func (g *GroupFile) deriveBlocks(blocks []block, nb int) []block {
	switch v := g.Vec; v.typ {
	case EInt32:
		return deriveBlocks(v.i32, g.Present, blocks, nb)
	case EInt64:
		return deriveBlocks(v.i64, g.Present, blocks, nb)
	default:
		return deriveBlocks(v.f64, g.Present, blocks, nb)
	}
}

// deriveBlocks is GroupFile.deriveBlocks over one element type. The sum of
// a block continues from the previous block's with foldRange itself, so a
// prefix taken from the summary is bit-identical to folding from bucket 0.
func deriveBlocks[T int32 | int64 | float64](vals []T, present *Bitmap, blocks []block, nb int) []block {
	var prev block
	if k := len(blocks); k > 0 {
		prev = blocks[k-1]
	}
	for k := len(blocks); k < nb; k++ {
		lo := k * blockLen
		hi := min(lo+blockLen, present.n, len(vals))
		b := block{lo: math.Inf(1), hi: math.Inf(-1)}
		for m := present.bits(lo, hi-lo); m != 0; m &= m - 1 {
			v := float64(vals[lo+bits.TrailingZeros64(m)])
			if v != v {
				b.nan = true
				continue
			}
			b.lo, b.hi = min(b.lo, v), max(b.hi, v)
		}
		b.sum, b.seen = foldRange(Sum, vals, present, lo, hi, prev.sum, prev.seen)
		blocks = append(blocks, b)
		prev = b
	}
	return blocks
}

// checkSummary compares every settled block with a fresh derivation from
// level 1, bit for bit: a change to level 1 that missed its invalidate
// leaves a stale block below the watermark.
func (g *GroupFile) checkSummary() error {
	g.l2.mu.Lock()
	defer g.l2.mu.Unlock()
	k := int(g.l2.valid.Load())
	fresh := g.deriveBlocks(nil, k)
	for i, b := range g.l2.blocks[:k] {
		f := fresh[i]
		if math.Float64bits(b.lo) != math.Float64bits(f.lo) || math.Float64bits(b.hi) != math.Float64bits(f.hi) ||
			b.nan != f.nan || math.Float64bits(b.sum) != math.Float64bits(f.sum) || b.seen != f.seen {
			return fmt.Errorf("group %q: level-2 block %d is %+v, level 1 says %+v", string(g.Key), i, b, f)
		}
	}
	return nil
}

// blockBounds returns the least present entry of s over block k (or, with
// upper, the greatest) when every bucket of the block has a present entry
// in some SMA-file and none of them is NaN: then every bucket's
// BucketMin/BucketMax lies within it. A nil SMA and a block it does not
// cover in full yield ok = false.
func (s *SMA) blockBounds(upper bool, k int) (v float64, ok bool) {
	if s == nil || s.NumBuckets < (k+1)*blockLen {
		return 0, false
	}
	v = math.Inf(1)
	if upper {
		v = math.Inf(-1)
	}
	var present uint64
	for _, g := range s.files {
		w := g.Present.words[k]
		if w == 0 {
			continue
		}
		b := g.summary()[k]
		if b.nan {
			return 0, false
		}
		if upper {
			v = max(v, b.hi)
		} else {
			v = min(v, b.lo)
		}
		present |= w
	}
	return v, present == ^uint64(0)
}
