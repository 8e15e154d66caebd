package hpbdc

import (
	"encoding/binary"
	"math"

	"repro/internal/serde"
)

// Codec serializes values of type T for shuffles and checkpoints. Encode
// and Decode must be inverses, and an encoding must depend on the value
// alone and only read it: a sort shuffle encodes a value again when it
// frames it, and speculative copies of a task encode one value at once.
// For SortByKey, the key codec must be
// order-preserving: byte-wise comparison of encodings must match the
// intended ordering (StringCodec and Uint64SortableCodec are; Int64Codec's
// varints are not).
type Codec[T any] struct {
	Encode func(T) []byte
	Decode func([]byte) T
	// Append, optional, appends v's encoding — the bytes Encode returns —
	// to dst. Shuffles encode through it into one reused buffer; a codec
	// without it pays Encode's allocation for every encoding.
	Append func(dst []byte, v T) []byte
	// decodeIn, set by codecs whose values can share memory, is Decode
	// with the result cut from arena instead of allocated.
	decodeIn func(arena *serde.Arena, b []byte) T
}

// forShuffle fills in what a shuffle calls and the codec left out, so the
// operators have one encode path (Append) and one decode path (decodeIn).
func (c Codec[T]) forShuffle() Codec[T] {
	if c.Append == nil {
		c.Append = func(dst []byte, v T) []byte { return append(dst, c.Encode(v)...) }
	}
	if c.decodeIn == nil {
		c.decodeIn = func(_ *serde.Arena, b []byte) T { return c.Decode(b) }
	}
	return c
}

// StringCodec encodes strings as raw bytes (order-preserving). The strings
// a shuffle decodes are cut from one arena per reduce partition, so
// keeping one of them keeps its whole partition's strings in memory; clone
// a string that is to outlive its partition.
var StringCodec = Codec[string]{
	Encode:   func(s string) []byte { return []byte(s) },
	Decode:   func(b []byte) string { return string(b) },
	Append:   func(dst []byte, s string) []byte { return append(dst, s...) },
	decodeIn: (*serde.Arena).String,
}

// BytesCodec passes byte slices through (order-preserving).
var BytesCodec = Codec[[]byte]{
	Encode: func(b []byte) []byte { return b },
	Decode: func(b []byte) []byte { return append([]byte(nil), b...) },
	Append: func(dst []byte, b []byte) []byte { return append(dst, b...) },
}

// Int64Codec encodes int64 as zigzag varints (compact, NOT
// order-preserving; use Uint64SortableCodec for sorts).
var Int64Codec = Codec[int64]{
	Encode: serde.EncodeInt64,
	Decode: func(b []byte) int64 {
		v, err := serde.DecodeInt64(b)
		if err != nil {
			panic("hpbdc: corrupt int64 encoding: " + err.Error())
		}
		return v
	},
	Append: serde.AppendInt64,
}

// IntCodec encodes int via Int64Codec.
var IntCodec = Codec[int]{
	Encode: func(v int) []byte { return serde.EncodeInt64(int64(v)) },
	Decode: func(b []byte) int { return int(Int64Codec.Decode(b)) },
	Append: func(dst []byte, v int) []byte { return serde.AppendInt64(dst, int64(v)) },
}

// Float64Codec encodes float64 as fixed 8 bytes (not order-preserving).
var Float64Codec = Codec[float64]{
	Encode: serde.EncodeFloat64,
	Decode: func(b []byte) float64 {
		v, err := serde.DecodeFloat64(b)
		if err != nil {
			panic("hpbdc: corrupt float64 encoding: " + err.Error())
		}
		return v
	},
	Append: func(dst []byte, v float64) []byte { return serde.AppendUint64(dst, math.Float64bits(v)) },
}

// Uint64SortableCodec encodes uint64 big-endian so byte order equals
// numeric order — the key codec for numeric sorts.
var Uint64SortableCodec = Codec[uint64]{
	Encode: serde.SortableUint64Key,
	Decode: func(b []byte) uint64 {
		v, err := serde.FromSortableUint64Key(b)
		if err != nil {
			panic("hpbdc: corrupt sortable uint64: " + err.Error())
		}
		return v
	},
	Append: binary.BigEndian.AppendUint64,
}
