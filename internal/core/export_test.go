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
