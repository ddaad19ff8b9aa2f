package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"

	"sma/internal/tuple"
)

// DeleteVector records deleted RIDs as a sidecar structure, leaving the
// fixed-width page layout untouched (the positional SMA↔bucket
// correspondence must survive deletes). Scans skip marked records; SMA
// maintenance observes deletions through HeapFile.Delete's return value.
// This mirrors the delete-vector design of modern analytic stores and
// keeps the paper's "cheap to maintain" property: a delete touches one
// page (to read the old record) plus the in-memory vector.
type DeleteVector struct {
	dead map[int64]struct{}
}

// NewDeleteVector creates an empty vector.
func NewDeleteVector() *DeleteVector {
	return &DeleteVector{dead: make(map[int64]struct{})}
}

// ordinal flattens a RID using the heap's records-per-page factor.
func ordinal(rid RID, perPage int) int64 {
	return int64(rid.Page)*int64(perPage) + int64(rid.Slot)
}

// Len returns the number of deleted records.
func (dv *DeleteVector) Len() int { return len(dv.dead) }

// markDeleted records rid; reports whether it was newly marked.
func (dv *DeleteVector) markDeleted(rid RID, perPage int) bool {
	o := ordinal(rid, perPage)
	if _, dup := dv.dead[o]; dup {
		return false
	}
	dv.dead[o] = struct{}{}
	return true
}

// isDeleted reports whether rid is marked.
func (dv *DeleteVector) isDeleted(rid RID, perPage int) bool {
	_, ok := dv.dead[ordinal(rid, perPage)]
	return ok
}

// deleteVectorMagic heads the on-disk encoding.
var deleteVectorMagic = [4]byte{'S', 'D', 'E', 'L'}

// Save writes the vector to path (sorted ordinals, little endian)
// through WriteFile.
func (dv *DeleteVector) Save(path string) error {
	ords := make([]int64, 0, len(dv.dead))
	for o := range dv.dead {
		ords = append(ords, o)
	}
	sort.Slice(ords, func(i, j int) bool { return ords[i] < ords[j] })
	buf := make([]byte, 0, 8+8*len(ords))
	buf = append(buf, deleteVectorMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ords)))
	for _, o := range ords {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o))
	}
	return WriteFile(path, buf)
}

// LoadDeleteVector reads a vector saved by Save; a missing file yields an
// empty vector, a damaged one an error IsCorrupt recognises.
func LoadDeleteVector(path string) (*DeleteVector, error) {
	raw, err := ReadFile(path)
	if os.IsNotExist(err) {
		return NewDeleteVector(), nil
	}
	if err != nil {
		return nil, err
	}
	if len(raw) < 8 || [4]byte(raw[:4]) != deleteVectorMagic {
		return nil, fmt.Errorf("storage: %s is not a delete vector", path)
	}
	n := int(binary.LittleEndian.Uint32(raw[4:]))
	if len(raw) < 8+8*n {
		return nil, fmt.Errorf("storage: truncated delete vector %s", path)
	}
	dv := NewDeleteVector()
	for i := 0; i < n; i++ {
		dv.dead[int64(binary.LittleEndian.Uint64(raw[8+8*i:]))] = struct{}{}
	}
	return dv, nil
}

// SetDeleteVector attaches a delete vector to the heap (nil detaches).
func (h *HeapFile) SetDeleteVector(dv *DeleteVector) { h.deletes = dv }

// DeleteVector returns the attached vector (nil when deletes are disabled).
func (h *HeapFile) DeleteVector() *DeleteVector { return h.deletes }

// Delete marks the record at rid as deleted and returns its prior image so
// callers can maintain SMAs. Deleting an already-deleted or out-of-range
// record fails.
func (h *HeapFile) Delete(rid RID) (old tuple.Tuple, err error) {
	if h.deletes == nil {
		h.deletes = NewDeleteVector()
	}
	t, err := h.Get(rid)
	if err != nil {
		return tuple.Tuple{}, err
	}
	if !h.deletes.markDeleted(rid, h.perPage) {
		return tuple.Tuple{}, fmt.Errorf("storage: record %v is already deleted", rid)
	}
	return t, nil
}

// unmark clears rid's deletion mark; reports whether it was marked.
func (dv *DeleteVector) unmark(rid RID, perPage int) bool {
	o := ordinal(rid, perPage)
	if _, ok := dv.dead[o]; !ok {
		return false
	}
	delete(dv.dead, o)
	return true
}

// Undelete clears the deletion mark on rid, reversing a Delete during
// statement rollback. It reports whether the record was marked.
func (h *HeapFile) Undelete(rid RID) bool {
	if h.deletes == nil {
		return false
	}
	return h.deletes.unmark(rid, h.perPage)
}

// ApplyDelete marks rid deleted without reading the old record — the
// idempotent redo used by WAL replay (re-deleting an already-marked
// record is a no-op, not an error).
func (h *HeapFile) ApplyDelete(rid RID) {
	if h.deletes == nil {
		h.deletes = NewDeleteVector()
	}
	h.deletes.markDeleted(rid, h.perPage)
}

// isLive reports whether rid is not deleted.
func (h *HeapFile) isLive(rid RID) bool {
	return h.deletes == nil || !h.deletes.isDeleted(rid, h.perPage)
}
