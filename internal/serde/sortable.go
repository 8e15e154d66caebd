package serde

import (
	"bytes"
	"encoding/binary"
	"math"
)

// Order-preserving scalar encodings: byte-wise lexicographic comparison of
// the encodings matches the natural ordering of the values. These are the
// key formats for range partitioning and distributed sorts (SortByKey, the
// table layer's ORDER BY).

// SortableInt64Key encodes v so byte order equals signed numeric order:
// flip the sign bit, then big-endian.
func SortableInt64Key(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v)^(1<<63))
	return b[:]
}

// FromSortableInt64Key inverts SortableInt64Key.
func FromSortableInt64Key(b []byte) (int64, error) {
	if len(b) < 8 {
		return 0, ErrCorrupt
	}
	return int64(binary.BigEndian.Uint64(b) ^ (1 << 63)), nil
}

// SortableFloat64Key encodes v with the IEEE-754 total-order trick:
// non-negative floats get their sign bit flipped; negative floats get all
// bits flipped. Byte order then matches numeric order (with -0 < +0 and
// NaNs ordered by payload at the extremes).
func SortableFloat64Key(v float64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], SortableFloat64Bits(v))
	return b[:]
}

// SortableFloat64Bits is SortableFloat64Key as an integer: the total order
// compares as unsigned numbers.
func SortableFloat64Bits(v float64) uint64 {
	bits := math.Float64bits(v)
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | 1<<63
}

// FromSortableFloat64Key inverts SortableFloat64Key.
func FromSortableFloat64Key(b []byte) (float64, error) {
	if len(b) < 8 {
		return 0, ErrCorrupt
	}
	bits := binary.BigEndian.Uint64(b)
	if bits&(1<<63) != 0 {
		bits &^= 1 << 63
	} else {
		bits = ^bits
	}
	return math.Float64frombits(bits), nil
}

// SortableStringKey encodes s so concatenated multi-column keys stay
// order-preserving and self-delimiting: each 0x00 byte becomes 0x00 0xFF,
// and the string ends with 0x00 0x01. (Standard "escape and terminate"
// encoding used by ordered key-value stores.)
func SortableStringKey(s string) []byte {
	return AppendSortableStringKey(make([]byte, 0, len(s)+2), s)
}

// AppendSortableStringKey appends SortableStringKey(s) to dst.
func AppendSortableStringKey(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, s[i])
		}
	}
	return append(dst, 0x00, 0x01)
}

// FromSortableStringKey decodes the next SortableStringKey from b,
// returning the string and the bytes consumed.
func FromSortableStringKey(b []byte) (string, int, error) {
	// A string without 0x00 bytes is stored as it is before its terminator.
	if i := bytes.IndexByte(b, 0x00); i >= 0 && i+1 < len(b) && b[i+1] == 0x01 {
		return string(b[:i]), i + 2, nil
	}
	var out []byte
	for i := 0; i < len(b); {
		if b[i] != 0x00 {
			out = append(out, b[i])
			i++
			continue
		}
		if i+1 >= len(b) {
			return "", 0, ErrCorrupt
		}
		switch b[i+1] {
		case 0xFF:
			out = append(out, 0x00)
			i += 2
		case 0x01:
			return string(out), i + 2, nil
		default:
			return "", 0, ErrCorrupt
		}
	}
	return "", 0, ErrCorrupt
}
