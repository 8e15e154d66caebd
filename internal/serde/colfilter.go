package serde

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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

// intColumnHeader is columnHeader for a numeric column, and the point
// where a row count read from the input becomes one a caller may size its
// output from: a plain or delta column spends at least one byte on every
// row and a fixed one eight, so its body bounds n; an RLE or packed column
// may expand, so its runs or block frames are walked — without allocating
// — and must cover exactly n rows.
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
	case encFixed64:
		if n > uint64(len(rest))/8 {
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
	case encPackedInt, encPackedDelta:
		blocks := rest
		for at := uint64(0); at < n; at += packBlock {
			_, after, err := packedFrame(blocks, tag, int(min(packBlock, n-at)))
			if err != nil {
				return 0, 0, nil, err
			}
			blocks = after
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

// frame is one block of a packed column: k values of w bits each in the
// first size bytes of data (the rest of the column follows them), each to
// be added to lo; first is a packed-delta block's first value less the
// previous block's.
type frame struct {
	first, lo int64
	w         uint
	k, size   int
	data      []byte
}

// packedFrame takes the block of cnt rows off the front of a packed
// column's body: for encPackedDelta a zigzag varint first, then for both a
// zigzag varint lo, a width byte w ≤ 64 and (k*w+7)/8 bytes, where k is cnt
// for encPackedInt and cnt-1 deltas for encPackedDelta.
func packedFrame(b []byte, tag byte, cnt int) (f frame, rest []byte, err error) {
	f.k = cnt
	if tag == encPackedDelta {
		first, used, err := Int64(b)
		if err != nil {
			return f, nil, err
		}
		f.first, f.k, b = first, cnt-1, b[used:]
	}
	lo, used, err := Int64(b)
	if err != nil || used >= len(b) || b[used] > 64 {
		return f, nil, ErrCorrupt
	}
	f.lo, f.w, b = lo, uint(b[used]), b[used+1:]
	f.size = (f.k*int(f.w) + 7) / 8
	if f.size > len(b) {
		return f, nil, ErrCorrupt
	}
	f.data = b
	return f, b[f.size:], nil
}

// unpack writes f's k values into dst, with no branch per value: each is
// cut from the 9-byte window at its first bit's byte. A window may run
// past the packed bits into the rest of the column, whose bits the mask
// drops; a block too near the column's end is first copied into a
// zero-padded buffer.
func unpack(dst []int64, f frame) {
	src := f.data
	if len(src) < f.size+9 {
		var pad [packBlock*8 + 9]byte
		copy(pad[:], src[:f.size])
		src = pad[:]
	}
	w, lo := f.w, f.lo
	mask := ^uint64(0) >> (64 - w) // a shift by 64 is 0: w == 0 masks every bit off
	at := uint(0)
	for i := range dst[:f.k] {
		k, s := at>>3, at&7
		v := binary.LittleEndian.Uint64(src[k:])>>s | uint64(src[k+8])<<1<<(63-s)
		dst[i] = int64(v&mask) + lo
		at += w
	}
}

// numReader yields an encoded numeric column's values, int64s or float
// bit patterns, a block of up to packBlock rows at a time, whatever its
// encoding.
type numReader struct {
	tag     byte
	n, at   uint64 // rows, rows yielded
	b       []byte // unread body
	prev    int64  // encDeltaInt: the last value; encPackedDelta: the last block's first
	run     int64  // encRLEInt: the current run's value,
	left    uint64 // its rows not yet yielded,
	runsEnd uint64 // and the rows the runs read so far cover
}

func newNumReader(b []byte) (numReader, error) {
	tag, n, rest, err := intColumnHeader(b)
	return numReader{tag: tag, n: n, b: rest}, err
}

// next decodes the next block into vals and returns its length; a nil vals
// passes over the block, building nothing where the encoding allows it.
func (r *numReader) next(vals *[packBlock]int64) (int, error) {
	cnt := int(min(packBlock, r.n-r.at))
	r.at += uint64(cnt)
	switch r.tag {
	case encPlainInt, encDeltaInt:
		for i := 0; i < cnt; i++ {
			v, used, err := Int64(r.b)
			if err != nil {
				return 0, err
			}
			r.b = r.b[used:]
			if r.tag == encDeltaInt {
				r.prev += v
				v = r.prev
			}
			if vals != nil {
				vals[i] = v
			}
		}
	case encFixed64:
		if vals != nil {
			for i := range vals[:cnt] {
				vals[i] = int64(binary.LittleEndian.Uint64(r.b[8*i:]))
			}
		}
		r.b = r.b[8*cnt:]
	case encRLEInt:
		for i := 0; i < cnt; {
			if r.left == 0 {
				v, run, rest, err := rleRun(r.b, r.runsEnd, r.n)
				if err != nil {
					return 0, err
				}
				r.b, r.run, r.left, r.runsEnd = rest, v, run, r.runsEnd+run
			}
			k := int(min(r.left, uint64(cnt-i)))
			if vals != nil {
				for j := range vals[i : i+k] {
					vals[i+j] = r.run
				}
			}
			i, r.left = i+k, r.left-uint64(k)
		}
	case encPackedInt, encPackedDelta:
		f, rest, err := packedFrame(r.b, r.tag, cnt)
		if err != nil {
			return 0, err
		}
		r.b, r.prev = rest, r.prev+f.first
		if vals == nil {
			break
		}
		if r.tag == encPackedInt {
			unpack(vals[:], f)
			break
		}
		vals[0] = r.prev
		unpack(vals[1:], f)
		for i := 1; i < cnt; i++ {
			vals[i] += vals[i-1]
		}
	}
	return cnt, nil
}

// convert writes src, int64s or float bit patterns, into dst as T.
func convert[T int64 | float64](dst []T, src []int64) {
	switch d := any(dst).(type) {
	case []int64:
		copy(d, src)
	case []float64:
		for i := range d {
			d[i] = math.Float64frombits(uint64(src[i]))
		}
	}
}

// filterNums evaluates keep over an encoded numeric column and returns the
// selection vector: once per RLE run, otherwise once per row, on each
// block decoded whole.
func filterNums[T int64 | float64](b []byte, keep func(T) bool) ([]bool, FilterStats, error) {
	var st FilterStats
	r, err := newNumReader(b)
	if err != nil {
		return nil, st, err
	}
	sel := make([]bool, r.n)
	st.Rows = int(r.n)
	var (
		vals  [packBlock]int64
		typed [packBlock]T
	)
	if r.tag == encRLEInt {
		for at := uint64(0); at < r.n; {
			v, run, rest, err := rleRun(r.b, at, r.n)
			if err != nil {
				return nil, st, err
			}
			r.b = rest
			st.PredEvals++
			vals[0] = v
			convert(typed[:1], vals[:1])
			if keep(typed[0]) {
				for k := at; k < at+run; k++ {
					sel[k] = true
				}
			}
			at += run
		}
		return sel, st, nil
	}
	for start := 0; start < len(sel); start += packBlock {
		k, err := r.next(&vals)
		if err != nil {
			return nil, st, err
		}
		convert(typed[:k], vals[:k])
		for i, v := range typed[:k] {
			sel[start+i] = keep(v)
		}
	}
	st.PredEvals = len(sel)
	return sel, st, nil
}

// FilterIntColumn evaluates keep over an encoded int column and returns
// the selection vector. RLE runs are evaluated once per run.
func FilterIntColumn(b []byte, keep func(int64) bool) ([]bool, FilterStats, error) {
	return filterNums(b, keep)
}

// selectInts decodes the positions of an encoded numeric column that sel
// marks (nil = every position; otherwise sel must have the column's
// length), in position order, into a slice sized from the selection count.
// A block with no selected position is passed over: a packed, fixed or RLE
// block costs nothing per value then.
func selectInts[T int64 | float64](b []byte, sel []bool) ([]T, error) {
	r, err := newNumReader(b)
	if err != nil {
		return nil, err
	}
	count, err := selectionCount(sel, r.n)
	if err != nil {
		return nil, err
	}
	out := make([]T, count)
	var vals [packBlock]int64
	at := 0
	for start := uint64(0); start < r.n; start += packBlock {
		var blk []bool
		if sel != nil {
			blk = sel[start:min(start+packBlock, r.n)]
			if !slices.Contains(blk, true) {
				if _, err := r.next(nil); err != nil {
					return nil, err
				}
				continue
			}
		}
		k, err := r.next(&vals)
		if err != nil {
			return nil, err
		}
		if blk != nil {
			k = 0
			for i, s := range blk {
				vals[k] = vals[i]
				if s {
					k++
				}
			}
		}
		convert(out[at:at+k], vals[:k])
		at += k
	}
	return out, nil
}

// SelectIntColumn decodes only the selected positions of an encoded int
// column (nil sel = all), in position order.
func SelectIntColumn(b []byte, sel []bool) ([]int64, error) { return selectInts[int64](b, sel) }

// FloatColumn is a chunk of float64 values, stored as their IEEE-754 bit
// patterns: eight bytes apiece, or RLE when repeated values make that
// smaller. NaNs round-trip bit-exactly.
type FloatColumn []float64

// Encode serializes the column.
func (c FloatColumn) Encode() []byte {
	ints := make(IntColumn, len(c))
	for i, v := range c {
		ints[i] = int64(math.Float64bits(v))
	}
	out := make([]byte, 0, 1+binary.MaxVarintLen64+8*len(c))
	out = append(out, encFixed64)
	out = binary.AppendUvarint(out, uint64(len(c)))
	for _, v := range ints {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	if rle := ints.encodeRLE(); len(rle) < len(out) {
		return rle
	}
	return out
}

// DecodeFloatColumn inverts FloatColumn.Encode.
func DecodeFloatColumn(b []byte) (FloatColumn, error) { return selectInts[float64](b, nil) }

// FilterFloatColumn evaluates keep over an encoded float column,
// RLE-aware like FilterIntColumn.
func FilterFloatColumn(b []byte, keep func(float64) bool) ([]bool, FilterStats, error) {
	return filterNums(b, keep)
}

// SelectFloatColumn decodes only the selected positions of an encoded
// float column (nil sel = all), straight into floats.
func SelectFloatColumn(b []byte, sel []bool) ([]float64, error) { return selectInts[float64](b, sel) }

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
