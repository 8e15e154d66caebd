package serde

import "encoding/binary"

// Column encodings. The encoder picks the smallest representation per
// column chunk; the decoder dispatches on the tag byte.
const (
	encPlainInt   = byte(1) // zigzag varints
	encRLEInt     = byte(2) // (value, runLength) pairs of varints
	encPlainStr   = byte(3) // varint-length-prefixed strings
	encDictStr    = byte(4) // dictionary + varint indexes
	encDeltaInt   = byte(5) // first value + zigzag varint deltas
	maxColumnRows = 1 << 28
)

// IntColumn is a chunk of int64 values with adaptive encoding: it tries
// plain, RLE and delta and emits the smallest. Sorted or repetitive data
// (timestamps, counters, categorical codes) compresses heavily.
type IntColumn []int64

// Encode serializes the column.
func (c IntColumn) Encode() []byte {
	plain := c.encodePlain()
	rle := c.encodeRLE()
	delta := c.encodeDelta()
	best := plain
	if len(rle) < len(best) {
		best = rle
	}
	if len(delta) < len(best) {
		best = delta
	}
	return best
}

func (c IntColumn) encodePlain() []byte {
	out := []byte{encPlainInt}
	out = binary.AppendUvarint(out, uint64(len(c)))
	for _, v := range c {
		out = AppendInt64(out, v)
	}
	return out
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

func (c IntColumn) encodeDelta() []byte {
	out := []byte{encDeltaInt}
	out = binary.AppendUvarint(out, uint64(len(c)))
	prev := int64(0)
	for _, v := range c {
		out = AppendInt64(out, v-prev)
		prev = v
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
