package storage

// Quarantined returns the ids of pages currently quarantined for failing
// checksum verification.
func (bp *BufferPool) Quarantined() []PageID {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	ids := make([]PageID, 0, len(bp.quarantined))
	for id := range bp.quarantined {
		ids = append(ids, id)
	}
	return ids
}

// Resident returns the number of pages currently cached.
func (bp *BufferPool) Resident() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.resident
}

// SeqRandReads returns the sequential / random split of physical reads.
func (d *DiskManager) SeqRandReads() (seq, random int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seqReads, d.randReads
}
