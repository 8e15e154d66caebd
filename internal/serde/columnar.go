package serde

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// Column encodings. The encoder picks the smallest representation per
// column chunk; the decoder dispatches on the tag byte. Every tag keeps
// decoding after its encoder is gone: packing replaced the plain and delta
// varint encoders, and a float column once took the int encodings of its
// bit patterns.
const (
	encPlainInt    = byte(1) // zigzag varints; decoded only
	encRLEInt      = byte(2) // (value, runLength) pairs of varints
	encPlainStr    = byte(3) // varint-length-prefixed strings
	encDictStr     = byte(4) // dictionary + varint indexes
	encDeltaInt    = byte(5) // zigzag varint deltas from the previous value; decoded only
	encPackedInt   = byte(6) // blocks of values bit-packed above the block's least (see packedFrame)
	encPackedDelta = byte(7) // blocks of a first value and bit-packed deltas (see packedFrame)
	encFixed64     = byte(8) // 8-byte little-endian bit patterns
	packBlock      = 64      // values per packed block
	maxColumnRows  = 1 << 28
)

// IntColumn is a chunk of int64 values with adaptive encoding: it tries
// packed values, packed deltas and RLE and emits the smallest. Values in a
// narrow range (ids, quantities) pack to their range's width; sorted or
// evenly spaced data (row ids, timestamps) packs its deltas, often to
// zero bits; long runs (categorical codes) take a pair per run.
type IntColumn []int64

// Encode serializes the column.
func (c IntColumn) Encode() []byte {
	best := c.encodePacked(encPackedInt)
	for _, enc := range [][]byte{c.encodePacked(encPackedDelta), c.encodeRLE()} {
		if len(enc) < len(best) {
			best = enc
		}
	}
	return best
}

func (c IntColumn) encodeRLE() []byte {
	out := []byte{encRLEInt}
	out = binary.AppendUvarint(out, uint64(len(c)))
	for i := 0; i < len(c); {
		j := i + 1
		for j < len(c) && c[j] == c[i] {
			j++
		}
		out = AppendInt64(out, c[i])
		out = binary.AppendUvarint(out, uint64(j-i))
		i = j
	}
	return out
}

// encodePacked writes the column in blocks of packBlock values under tag
// encPackedInt (each block frames its values) or encPackedDelta (each
// block gives its first value, less the previous block's first, and frames
// the differences between its neighbours). Arithmetic wraps, so any
// int64s round-trip.
func (c IntColumn) encodePacked(tag byte) []byte {
	out := []byte{tag}
	out = binary.AppendUvarint(out, uint64(len(c)))
	var deltas [packBlock]int64
	first := int64(0)
	for start := 0; start < len(c); start += packBlock {
		blk := c[start:min(start+packBlock, len(c))]
		if tag == encPackedInt {
			out = appendFrame(out, blk)
			continue
		}
		out = AppendInt64(out, blk[0]-first)
		first = blk[0]
		for i := 1; i < len(blk); i++ {
			deltas[i-1] = blk[i] - blk[i-1]
		}
		out = appendFrame(out, deltas[:len(blk)-1])
	}
	return out
}

// appendFrame appends vals as their least value lo (a zigzag varint), a
// width byte w and each value's excess over lo in w bits, least
// significant bit first, in (len(vals)*w+7)/8 bytes.
func appendFrame(out []byte, vals []int64) []byte {
	var lo, hi int64
	if len(vals) > 0 {
		lo, hi = slices.Min(vals), slices.Max(vals)
	}
	w := uint(bits.Len64(uint64(hi - lo)))
	out = AppendInt64(out, lo)
	out = append(out, byte(w))
	var words [packBlock + 1]uint64
	for i, v := range vals {
		d, at := uint64(v-lo), uint(i)*w
		words[at/64] |= d << (at % 64)
		words[at/64+1] |= d >> (64 - at%64) // a shift by 64 is 0
	}
	for i := 0; i < (len(vals)*int(w)+7)/8; i++ {
		out = append(out, byte(words[i/8]>>(8*(i%8))))
	}
	return out
}

// DecodeIntColumn inverts IntColumn.Encode.
func DecodeIntColumn(b []byte) (IntColumn, error) { return SelectIntColumn(b, nil) }

// StringColumn is a chunk of string values with adaptive plain/dictionary
// encoding. Low-cardinality columns (country, event type) dict-encode to a
// fraction of their plain size.
type StringColumn []string

// Encode serializes the column.
func (c StringColumn) Encode() []byte {
	plain := c.encodePlain()
	dict := c.encodeDict()
	if dict != nil && len(dict) < len(plain) {
		return dict
	}
	return plain
}

func (c StringColumn) encodePlain() []byte {
	out := []byte{encPlainStr}
	out = binary.AppendUvarint(out, uint64(len(c)))
	for _, s := range c {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	return out
}

// encodeDict returns nil when cardinality is too high to bother.
func (c StringColumn) encodeDict() []byte {
	index := map[string]uint64{}
	var dict []string
	for _, s := range c {
		if _, ok := index[s]; !ok {
			index[s] = uint64(len(dict))
			dict = append(dict, s)
			if len(dict) > len(c)/2+1 {
				return nil
			}
		}
	}
	out := []byte{encDictStr}
	out = binary.AppendUvarint(out, uint64(len(c)))
	out = binary.AppendUvarint(out, uint64(len(dict)))
	for _, s := range dict {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	for _, s := range c {
		out = binary.AppendUvarint(out, index[s])
	}
	return out
}

// DecodeStringColumn inverts StringColumn.Encode.
func DecodeStringColumn(b []byte) (StringColumn, error) { return SelectStringColumn(b, nil) }
