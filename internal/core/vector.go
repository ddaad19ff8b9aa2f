package core

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ElemType is the storage type of SMA-file entries.
type ElemType uint8

// Element types, matching the paper's widths (4-byte dates/counts, 8-byte
// sums and general values).
const (
	EInt32 ElemType = iota
	EInt64
	EFloat64
)

// Width returns the entry width in bytes.
func (e ElemType) Width() int {
	switch e {
	case EInt32:
		return 4
	default:
		return 8
	}
}

// String names the element type.
func (e ElemType) String() string {
	switch e {
	case EInt32:
		return "i32"
	case EInt64:
		return "i64"
	case EFloat64:
		return "f64"
	default:
		return fmt.Sprintf("ElemType(%d)", uint8(e))
	}
}

// Vector is a dense, append-only array of aggregate values with a fixed
// element type. It is the in-memory image of one SMA-file.
type Vector struct {
	typ ElemType
	i32 []int32
	i64 []int64
	f64 []float64
}

// NewVector creates an empty vector of the given element type.
func NewVector(t ElemType) *Vector { return &Vector{typ: t} }

// Type returns the element type.
func (v *Vector) Type() ElemType { return v.typ }

// Len returns the number of entries.
func (v *Vector) Len() int {
	switch v.typ {
	case EInt32:
		return len(v.i32)
	case EInt64:
		return len(v.i64)
	default:
		return len(v.f64)
	}
}

// append adds a value, narrowing it to the element type.
func (v *Vector) append(x float64) {
	switch v.typ {
	case EInt32:
		v.i32 = append(v.i32, int32(x))
	case EInt64:
		v.i64 = append(v.i64, int64(x))
	default:
		v.f64 = append(v.f64, x)
	}
}

// Get returns entry i widened to float64.
func (v *Vector) Get(i int) float64 {
	switch v.typ {
	case EInt32:
		return float64(v.i32[i])
	case EInt64:
		return float64(v.i64[i])
	default:
		return v.f64[i]
	}
}

// set overwrites entry i.
func (v *Vector) set(i int, x float64) {
	switch v.typ {
	case EInt32:
		v.i32[i] = int32(x)
	case EInt64:
		v.i64[i] = int64(x)
	default:
		v.f64[i] = x
	}
}

// SizeBytes returns the on-disk payload size of the entries.
func (v *Vector) SizeBytes() int64 { return int64(v.Len()) * int64(v.typ.Width()) }

// encode appends the little-endian entry bytes to dst.
func (v *Vector) encode(dst []byte) []byte {
	switch v.typ {
	case EInt32:
		for _, x := range v.i32 {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
		}
	case EInt64:
		for _, x := range v.i64 {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
		}
	default:
		for _, x := range v.f64 {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
	}
	return dst
}

// decodeVector reads n entries of type t from src, returning the vector and
// the number of bytes consumed.
func decodeVector(t ElemType, n int, src []byte) (*Vector, int, error) {
	need := n * t.Width()
	if len(src) < need {
		return nil, 0, fmt.Errorf("core: truncated SMA vector: need %d bytes, have %d", need, len(src))
	}
	v := NewVector(t)
	switch t {
	case EInt32:
		v.i32 = make([]int32, n)
		for i := 0; i < n; i++ {
			v.i32[i] = int32(binary.LittleEndian.Uint32(src[i*4:]))
		}
	case EInt64:
		v.i64 = make([]int64, n)
		for i := 0; i < n; i++ {
			v.i64[i] = int64(binary.LittleEndian.Uint64(src[i*8:]))
		}
	default:
		v.f64 = make([]float64, n)
		for i := 0; i < n; i++ {
			v.f64[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
		}
	}
	return v, need, nil
}

// Bitmap is a simple dense bitset marking, per bucket, whether a grouped
// SMA-file has a value for that bucket (a group may have no tuples in some
// buckets).
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap creates an empty bitmap.
func NewBitmap() *Bitmap { return &Bitmap{} }

// Len returns the number of bits tracked.
func (b *Bitmap) Len() int { return b.n }

// append adds one bit.
func (b *Bitmap) append(set bool) {
	i := b.n
	b.n++
	if i/64 >= len(b.words) {
		b.words = append(b.words, 0)
	}
	if set {
		b.words[i/64] |= 1 << (i % 64)
	}
}

// Get reports bit i.
func (b *Bitmap) Get(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i/64]&(1<<(i%64)) != 0
}

// bits returns the bits of [lo, lo+n) — bit i for position lo+i — which
// must lie within one word: 1 <= n <= 64-lo%64 and lo+n <= Len.
func (b *Bitmap) bits(lo, n int) uint64 {
	return b.words[lo>>6] >> (lo & 63) & (^uint64(0) >> (64 - n))
}

// set sets bit i to v; i must be < Len.
func (b *Bitmap) set(i int, v bool) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("core: bitmap index %d out of range [0,%d)", i, b.n))
	}
	if v {
		b.words[i/64] |= 1 << (i % 64)
	} else {
		b.words[i/64] &^= 1 << (i % 64)
	}
}

// encode appends the bitmap words to dst.
func (b *Bitmap) encode(dst []byte) []byte {
	for _, w := range b.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// decodeBitmap reads a bitmap of n bits from src, returning bytes consumed.
func decodeBitmap(n int, src []byte) (*Bitmap, int, error) {
	words := (n + 63) / 64
	need := words * 8
	if len(src) < need {
		return nil, 0, fmt.Errorf("core: truncated SMA bitmap: need %d bytes, have %d", need, len(src))
	}
	b := &Bitmap{words: make([]uint64, words), n: n}
	for i := 0; i < words; i++ {
		b.words[i] = binary.LittleEndian.Uint64(src[i*8:])
	}
	return b, need, nil
}
