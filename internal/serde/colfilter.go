package serde

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoding-aware column scans. These are the primitives the query layer's
// predicate pushdown compiles onto: instead of decode-then-filter, the
// predicate runs against the encoded representation and exploits it —
// an RLE run evaluates the predicate once per run regardless of length,
// and a dictionary-encoded string column evaluates it once per distinct
// dictionary entry rather than once per row. The returned selection
// vector then drives SelectXColumn, which materializes only the chosen
// positions (and skips entirely-unselected RLE runs without building
// their values).
//
// FilterStats reports how much work the encoding saved: Rows is the
// column length, PredEvals how many times the predicate actually ran.
// For plain encodings PredEvals == Rows; for RLE and dictionary columns
// it is the run or dictionary count.
type FilterStats struct {
	Rows      int
	PredEvals int
}

// columnHeader takes the encoding tag and the row count off the front of
// an encoded column.
func columnHeader(b []byte) (tag byte, n uint64, rest []byte, err error) {
	if len(b) == 0 {
		return 0, 0, nil, ErrCorrupt
	}
	n, sz := binary.Uvarint(b[1:])
	if sz <= 0 || n > maxColumnRows {
		return 0, 0, nil, ErrCorrupt
	}
	return b[0], n, b[1+sz:], nil
}

// intColumnHeader is columnHeader for an int column, and the point where a
// row count read from the input becomes one a caller may size its output
// from: a plain or delta column spends at least one byte on every row, so
// its body bounds n; an RLE column may expand, so its runs are walked —
// without allocating — and must add up to exactly n.
func intColumnHeader(b []byte) (tag byte, n uint64, rest []byte, err error) {
	tag, n, rest, err = columnHeader(b)
	if err != nil {
		return 0, 0, nil, err
	}
	switch tag {
	case encPlainInt, encDeltaInt:
		if n > uint64(len(rest)) {
			return 0, 0, nil, ErrCorrupt
		}
	case encRLEInt:
		runs := rest
		for at := uint64(0); at < n; {
			_, run, after, err := rleRun(runs, at, n)
			if err != nil {
				return 0, 0, nil, err
			}
			runs, at = after, at+run
		}
	default:
		return 0, 0, nil, fmt.Errorf("%w: unknown int encoding %d", ErrCorrupt, tag)
	}
	return tag, n, rest, nil
}

// strColumnHeader is columnHeader for a string column: plain strings and
// dictionary indexes both spend at least one byte per row, so the body
// bounds n (and dictHeader bounds the dictionary the same way).
func strColumnHeader(b []byte) (tag byte, n uint64, rest []byte, err error) {
	tag, n, rest, err = columnHeader(b)
	if err != nil {
		return 0, 0, nil, err
	}
	if tag != encPlainStr && tag != encDictStr {
		return 0, 0, nil, fmt.Errorf("%w: unknown string encoding %d", ErrCorrupt, tag)
	}
	if n > uint64(len(rest)) {
		return 0, 0, nil, ErrCorrupt
	}
	return tag, n, rest, nil
}

// selectionCount checks sel against a column of n rows and returns how many
// positions it selects; a nil sel selects all of them.
func selectionCount(sel []bool, n uint64) (int, error) {
	if sel == nil {
		return int(n), nil
	}
	if uint64(len(sel)) != n {
		return 0, ErrCorrupt
	}
	count := 0
	for _, s := range sel {
		if s {
			count++
		}
	}
	return count, nil
}

// rleRun takes one (value, run length) pair off an RLE column that has n
// rows, at of them already consumed.
func rleRun(b []byte, at, n uint64) (v int64, run uint64, rest []byte, err error) {
	v, used, err := Int64(b)
	if err != nil {
		return 0, 0, nil, err
	}
	run, sz := binary.Uvarint(b[used:])
	if sz <= 0 || run == 0 || at+run > n {
		return 0, 0, nil, ErrCorrupt
	}
	return v, run, b[used+sz:], nil
}

// FilterIntColumn evaluates keep over an encoded int column and returns
// the selection vector. RLE runs are evaluated once per run.
func FilterIntColumn(b []byte, keep func(int64) bool) ([]bool, FilterStats, error) {
	var st FilterStats
	tag, n, b, err := intColumnHeader(b)
	if err != nil {
		return nil, st, err
	}
	sel := make([]bool, n)
	st.Rows = int(n)
	switch tag {
	case encPlainInt, encDeltaInt:
		prev := int64(0)
		for i := range sel {
			v, used, err := Int64(b)
			if err != nil {
				return nil, st, err
			}
			b = b[used:]
			if tag == encDeltaInt {
				prev += v
				v = prev
			}
			sel[i] = keep(v)
		}
		st.PredEvals = len(sel)
	case encRLEInt:
		for at := uint64(0); at < n; {
			v, run, rest, err := rleRun(b, at, n)
			if err != nil {
				return nil, st, err
			}
			b = rest
			st.PredEvals++
			if keep(v) {
				for k := at; k < at+run; k++ {
					sel[k] = true
				}
			}
			at += run
		}
	}
	return sel, st, nil
}

// selectInts decodes the positions of an encoded int column that sel marks
// (nil = every position; otherwise sel must have the column's length), in
// position order, into a slice sized from the selection count. conv maps a
// stored value to its T. RLE runs with no selected position cost nothing
// per value.
func selectInts[T int64 | float64](b []byte, sel []bool, conv func(int64) T) ([]T, error) {
	tag, n, b, err := intColumnHeader(b)
	if err != nil {
		return nil, err
	}
	count, err := selectionCount(sel, n)
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, count)
	switch tag {
	case encPlainInt, encDeltaInt:
		prev := int64(0)
		for i := uint64(0); i < n; i++ {
			v, used, err := Int64(b)
			if err != nil {
				return nil, err
			}
			b = b[used:]
			if tag == encDeltaInt {
				prev += v
				v = prev
			}
			if sel == nil || sel[i] {
				out = append(out, conv(v))
			}
		}
	case encRLEInt:
		for at := uint64(0); at < n; {
			v, run, rest, err := rleRun(b, at, n)
			if err != nil {
				return nil, err
			}
			b = rest
			cv := conv(v)
			for k := at; k < at+run; k++ {
				if sel == nil || sel[k] {
					out = append(out, cv)
				}
			}
			at += run
		}
	}
	return out, nil
}

// SelectIntColumn decodes only the selected positions of an encoded int
// column (nil sel = all), in position order.
func SelectIntColumn(b []byte, sel []bool) ([]int64, error) {
	return selectInts(b, sel, func(v int64) int64 { return v })
}

// FloatColumn is a chunk of float64 values, stored as the IEEE-754 bit
// patterns in an IntColumn (repeated values RLE-compress; the adaptive
// int encodings do the rest). NaNs round-trip bit-exactly.
type FloatColumn []float64

// Encode serializes the column.
func (c FloatColumn) Encode() []byte {
	ints := make(IntColumn, len(c))
	for i, v := range c {
		ints[i] = int64(math.Float64bits(v))
	}
	return ints.Encode()
}

func floatOfBits(v int64) float64 { return math.Float64frombits(uint64(v)) }

// DecodeFloatColumn inverts FloatColumn.Encode.
func DecodeFloatColumn(b []byte) (FloatColumn, error) { return selectInts(b, nil, floatOfBits) }

// FilterFloatColumn evaluates keep over an encoded float column,
// RLE-aware like FilterIntColumn.
func FilterFloatColumn(b []byte, keep func(float64) bool) ([]bool, FilterStats, error) {
	return FilterIntColumn(b, func(v int64) bool { return keep(floatOfBits(v)) })
}

// SelectFloatColumn decodes only the selected positions of an encoded
// float column (nil sel = all), straight into floats.
func SelectFloatColumn(b []byte, sel []bool) ([]float64, error) {
	return selectInts(b, sel, floatOfBits)
}

// columnString takes one length-prefixed string's bytes off the front of b.
func columnString(b []byte) (s, rest []byte, err error) {
	l, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < l {
		return nil, nil, ErrCorrupt
	}
	return b[sz : sz+int(l)], b[sz+int(l):], nil
}

// dictIndex takes one dictionary index below dn off the front of b.
func dictIndex(b []byte, dn uint64) (idx uint64, rest []byte, err error) {
	idx, sz := binary.Uvarint(b)
	if sz <= 0 || idx >= dn {
		return 0, nil, ErrCorrupt
	}
	return idx, b[sz:], nil
}

// dictHeader takes the entry count off the front of a dictionary column
// of n rows. The rest must hold dn entries and n indexes, a byte or more
// each.
func dictHeader(b []byte, n uint64) (dn uint64, rest []byte, err error) {
	dn, sz := binary.Uvarint(b)
	if sz <= 0 || dn > n || dn+n > uint64(len(b)-sz) {
		return 0, nil, ErrCorrupt
	}
	return dn, b[sz:], nil
}

// FilterStringColumn evaluates keep over an encoded string column. On a
// dictionary-encoded column the predicate runs once per dictionary entry
// — for a low-cardinality column that is a small constant instead of one
// evaluation per row — and the per-row pass only tests a bit per index.
func FilterStringColumn(b []byte, keep func(string) bool) ([]bool, FilterStats, error) {
	var st FilterStats
	tag, n, b, err := strColumnHeader(b)
	if err != nil {
		return nil, st, err
	}
	sel := make([]bool, n)
	st.Rows = int(n)
	// evalNext runs keep on the next length-prefixed string.
	evalNext := func() (bool, error) {
		s, rest, err := columnString(b)
		b = rest
		st.PredEvals++
		return err == nil && keep(string(s)), err
	}
	switch tag {
	case encPlainStr:
		for i := range sel {
			if sel[i], err = evalNext(); err != nil {
				return nil, st, err
			}
		}
	case encDictStr:
		dn, rest, err := dictHeader(b, n)
		if err != nil {
			return nil, st, err
		}
		b = rest
		keepIdx := make([]bool, dn)
		for d := range keepIdx {
			if keepIdx[d], err = evalNext(); err != nil {
				return nil, st, err
			}
		}
		for i := range sel {
			idx, rest, err := dictIndex(b, dn)
			if err != nil {
				return nil, st, err
			}
			b = rest
			sel[i] = keepIdx[idx]
		}
	}
	return sel, st, nil
}

// SelectStringColumn decodes only the selected positions of an encoded
// string column (nil sel = all) into a slice sized from the selection
// count. On a dictionary column, dictionary entries are decoded once and
// selected rows share them; on a plain column, unselected strings are
// never built.
func SelectStringColumn(b []byte, sel []bool) ([]string, error) {
	tag, n, b, err := strColumnHeader(b)
	if err != nil {
		return nil, err
	}
	count, err := selectionCount(sel, n)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, count)
	switch tag {
	case encPlainStr:
		for i := uint64(0); i < n; i++ {
			s, rest, err := columnString(b)
			if err != nil {
				return nil, err
			}
			b = rest
			if sel == nil || sel[i] {
				out = append(out, string(s))
			}
		}
	case encDictStr:
		dn, rest, err := dictHeader(b, n)
		if err != nil {
			return nil, err
		}
		b = rest
		dict := make([]string, dn)
		for d := range dict {
			s, rest, err := columnString(b)
			if err != nil {
				return nil, err
			}
			dict[d], b = string(s), rest
		}
		for i := uint64(0); i < n; i++ {
			idx, rest, err := dictIndex(b, dn)
			if err != nil {
				return nil, err
			}
			b = rest
			if sel == nil || sel[i] {
				out = append(out, dict[idx])
			}
		}
	}
	return out, nil
}
