package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sma/internal/storage"
	"sma/internal/tuple"
)

// SMA-file binary format:
//
//	magic   [4]byte "SMAF"
//	version u16
//	elem    u8
//	pad     u8
//	bucketPages u32
//	numBuckets  u32
//	keyLen  u32
//	key     [keyLen]byte   (canonical group key, empty for ungrouped)
//	entries numBuckets * elem.Width() bytes
//	bitmap  ceil(numBuckets/64) * 8 bytes
//	crc     u32            (CRC-32C trailer of storage.WriteFile)
var smafMagic = [4]byte{'S', 'M', 'A', 'F'}

const smafVersion = 1

// FileName returns the on-disk name of the SMA-file for group index i of
// the named SMA. One OS file per SMA-file, as in the paper.
func FileName(smaName string, i int) string {
	return fmt.Sprintf("%s.g%04d.smaf", strings.ToLower(smaName), i)
}

// Save writes every SMA-file of s into dir (created if needed), one file
// per group through storage.WriteFile, and removes stale group files from
// earlier saves.
func (s *SMA) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: save sma %s: %w", s.Def.Name, err)
	}
	stale, err := filepath.Glob(filepath.Join(dir, strings.ToLower(s.Def.Name)+".g*.smaf"))
	if err != nil {
		return err
	}
	for i, g := range s.files {
		key := g.Key
		buf := make([]byte, 0, 24+len(key)+int(g.Vec.SizeBytes())+8*((s.NumBuckets+63)/64))
		buf = append(buf, smafMagic[:]...)
		buf = binary.LittleEndian.AppendUint16(buf, smafVersion)
		buf = append(buf, byte(s.elem), 0)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.BucketPages))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.NumBuckets))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
		buf = append(buf, key...)
		buf = g.Vec.encode(buf)
		buf = g.Present.encode(buf)
		path := filepath.Join(dir, FileName(s.Def.Name, i))
		if err := storage.WriteFile(path, buf); err != nil {
			return fmt.Errorf("core: save sma %s: %w", s.Def.Name, err)
		}
	}
	for _, p := range stale {
		var idx int
		base := filepath.Base(p)
		if _, err := fmt.Sscanf(base[strings.LastIndex(base, ".g")+2:], "%04d.smaf", &idx); err == nil && idx < len(s.files) {
			continue // just rewritten
		}
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	return nil
}

// Load reads a saved SMA back from dir. The definition and schema come from
// the catalog; Load restores the vectors and presence bitmaps. A damaged
// SMA-file fails with an error storage.IsCorrupt recognises.
func Load(dir string, def Def, schema *tuple.Schema) (*SMA, error) {
	paths, err := filepath.Glob(filepath.Join(dir, strings.ToLower(def.Name)+".g*.smaf"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("core: no SMA-files for %q in %s", def.Name, dir)
	}
	sort.Strings(paths)
	var s *SMA
	for _, p := range paths {
		raw, err := storage.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("core: load %s: %w", p, err)
		}
		if len(raw) < 20 || [4]byte(raw[:4]) != smafMagic {
			return nil, fmt.Errorf("core: %s is not an SMA-file", p)
		}
		if v := binary.LittleEndian.Uint16(raw[4:]); v != smafVersion {
			return nil, fmt.Errorf("core: %s has unsupported version %d", p, v)
		}
		elem := ElemType(raw[6])
		bucketPages := int(binary.LittleEndian.Uint32(raw[8:]))
		numBuckets := int(binary.LittleEndian.Uint32(raw[12:]))
		keyLen := int(binary.LittleEndian.Uint32(raw[16:]))
		if len(raw) < 20+keyLen {
			return nil, fmt.Errorf("core: %s: truncated group key", p)
		}
		key := GroupKey(raw[20 : 20+keyLen])
		rest := raw[20+keyLen:]

		if s == nil {
			s, err = newSMA(def, schema, bucketPages)
			if err != nil {
				return nil, err
			}
			s.elem = elem
			s.NumBuckets = numBuckets
		} else if s.NumBuckets != numBuckets {
			return nil, fmt.Errorf("core: %s: bucket count %d disagrees with sibling files (%d)", p, numBuckets, s.NumBuckets)
		}
		vec, n, err := decodeVector(elem, numBuckets, rest)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", p, err)
		}
		bm, _, err := decodeBitmap(numBuckets, rest[n:])
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", p, err)
		}
		vals, err := ParseGroupKey(key)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", p, err)
		}
		if _, dup := s.groups[key]; dup {
			return nil, fmt.Errorf("core: %s: duplicate group key", p)
		}
		g := s.addGroup(key, vals, 0)
		g.Vec = vec
		g.Present = bm
	}
	return s, nil
}
