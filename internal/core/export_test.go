package core

// AppendEntry opens one more bucket in g, stores v in its entry and marks
// it present or absent. An absent bucket keeps v, so folds that wrongly
// read absent entries see non-zero values. The bucket opens through
// appendAbsent and its entry changes after an invalidate, so the level-2
// watermark follows.
func (g *GroupFile) AppendEntry(v float64, present bool) {
	g.appendAbsent()
	b := g.Present.Len() - 1
	g.invalidate(b)
	g.Vec.set(b, v)
	g.Present.set(b, present)
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	total := 0
	for _, w := range b.words {
		for ; w != 0; w &= w - 1 {
			total++
		}
	}
	return total
}

// NumBuckets returns the bucket count covered by the grader's SMAs.
func (g *Grader) NumBuckets() int { return g.numBuckets }

// ElemType returns the storage type of the SMA's entries.
func (s *SMA) ElemType() ElemType { return s.elem }

// GroupKeys returns the group keys in deterministic order.
func (s *SMA) GroupKeys() []GroupKey {
	out := make([]GroupKey, len(s.files))
	for i, g := range s.files {
		out[i] = g.Key
	}
	return out
}
