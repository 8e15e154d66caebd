package table

import (
	"math"

	"repro/internal/core"
	"repro/internal/serde"
)

// Vector is one column of a Batch: the slice matching the column's type
// holds the values, the other two stay nil.
type Vector struct {
	Ints    []int64
	Floats  []float64
	Strings []string
}

// Batch is one partition's rows stored column by column: Cols[k] holds the
// values of schema column k, Len() of them. It is the only thing that flows
// between operators — every plan of this package has one *Batch per
// partition — and it is read-only once handed on: the same batch is read
// again by a retried task, by a second consumer of the plan and by
// header-only operators (Select, Head, a filter that keeps everything),
// which share its vectors. Whoever needs other contents allocates new
// vectors; nobody appends to or writes into one it was handed.
type Batch struct {
	n    int
	Cols []Vector
}

// Len returns the number of rows.
func (b *Batch) Len() int { return b.n }

// newVector returns an empty vector of type typ with room for rows values.
func newVector(typ Type, rows int) Vector {
	switch typ {
	case Int64:
		return Vector{Ints: make([]int64, 0, rows)}
	case Float64:
		return Vector{Floats: make([]float64, 0, rows)}
	default:
		return Vector{Strings: make([]string, 0, rows)}
	}
}

// newBatch returns an empty batch of s's columns with room for rows rows.
func newBatch(s Schema, rows int) *Batch {
	b := &Batch{Cols: make([]Vector, len(s.Cols))}
	for k, c := range s.Cols {
		b.Cols[k] = newVector(c.Type, rows)
	}
	return b
}

// batchOf returns the batch a partition of a plan with schema s holds; a
// partition with no row at all is an empty one.
func batchOf(s Schema, rows []core.Row) *Batch {
	if len(rows) == 0 {
		return newBatch(s, 0)
	}
	return rows[0].(*Batch)
}

// push unboxes x onto the end of a vector of type typ.
func (v *Vector) push(typ Type, x any) {
	switch typ {
	case Int64:
		v.Ints = append(v.Ints, x.(int64))
	case Float64:
		v.Floats = append(v.Floats, x.(float64))
	default:
		v.Strings = append(v.Strings, x.(string))
	}
}

// batchFromRows unboxes rows[from], rows[from+step], ... into a batch.
func batchFromRows(s Schema, rows []Row, from, step int) *Batch {
	b := newBatch(s, (len(rows)-from+step-1)/step)
	for i := from; i < len(rows); i += step {
		for k, c := range s.Cols {
			b.Cols[k].push(c.Type, rows[i][k])
		}
		b.n++
	}
	return b
}

// readRow boxes row i into dst, which has one element per column.
func (b *Batch) readRow(s Schema, i int, dst Row) {
	for k, c := range s.Cols {
		switch c.Type {
		case Int64:
			dst[k] = b.Cols[k].Ints[i]
		case Float64:
			dst[k] = b.Cols[k].Floats[i]
		default:
			dst[k] = b.Cols[k].Strings[i]
		}
	}
}

// head returns the vector cut to its first n values (all of it if it has
// no more); the result shares v's memory.
func (v Vector) head(n int) Vector {
	return Vector{Ints: v.Ints[:min(n, len(v.Ints))], Floats: v.Floats[:min(n, len(v.Floats))], Strings: v.Strings[:min(n, len(v.Strings))]}
}

// pick copies the idx positions of src; the two unused slices of a vector
// are nil and stay nil.
func pick[T any](src []T, idx []int32) []T {
	if src == nil {
		return nil
	}
	out := make([]T, len(idx))
	for k, i := range idx {
		out[k] = src[i]
	}
	return out
}

// gather returns new vectors holding rows idx[0], idx[1], ... of b.
func (b *Batch) gather(idx []int32) []Vector {
	out := make([]Vector, len(b.Cols))
	for k, v := range b.Cols {
		out[k] = Vector{Ints: pick(v.Ints, idx), Floats: pick(v.Floats, idx), Strings: pick(v.Strings, idx)}
	}
	return out
}

// ---------------------------------------------------------------------------
// Row and key encodings

// appendRow serializes row i against the schema: Int64 as a zig-zag
// varint, Float64 as the 8 fixed bytes of its bits, String as a varint
// length followed by the bytes.
func (b *Batch) appendRow(dst []byte, s Schema, i int) []byte {
	for k, c := range s.Cols {
		switch c.Type {
		case Int64:
			dst = serde.AppendInt64(dst, b.Cols[k].Ints[i])
		case Float64:
			dst = serde.AppendUint64(dst, math.Float64bits(b.Cols[k].Floats[i]))
		default:
			str := b.Cols[k].Strings[i]
			dst = append(serde.AppendInt64(dst, int64(len(str))), str...)
		}
	}
	return dst
}

// decodeRow inverts appendRow, appending the row to b. Its strings are
// rec's bytes, not copies (serde.Frozen): rec is a reduce side's view of
// its records, which nothing writes again. A record that fails part-way
// leaves b as it was: every vector keeps the batch's length.
func (b *Batch) decodeRow(s Schema, rec []byte) error {
	for k, c := range s.Cols {
		v := &b.Cols[k]
		var err error
		switch c.Type {
		case Int64:
			var x int64
			x, rec, err = readInt(rec)
			v.Ints = append(v.Ints, x)
		case Float64:
			var x float64
			x, rec, err = readFloat(rec)
			v.Floats = append(v.Floats, x)
		default:
			var x []byte
			x, rec, err = readBytes(rec)
			v.Strings = append(v.Strings, serde.Frozen(x))
		}
		if err != nil {
			for j := 0; j <= k; j++ { // drop the half-appended row
				b.Cols[j] = b.Cols[j].head(b.n)
			}
			return err
		}
	}
	b.n++
	return nil
}

// readInt, readFloat and readBytes take one appendRow-encoded value off
// the front of b; readBytes returns a string column's value in place.
func readInt(b []byte) (int64, []byte, error) {
	v, n, err := serde.Int64(b)
	if err != nil {
		return 0, nil, err
	}
	return v, b[n:], nil
}

func readFloat(b []byte) (float64, []byte, error) {
	u, err := serde.Uint64(b)
	if err != nil {
		return 0, nil, err
	}
	return math.Float64frombits(u), b[8:], nil
}

func readBytes(b []byte) ([]byte, []byte, error) {
	l, b, err := readInt(b)
	if err != nil || l < 0 || int64(len(b)) < l {
		return nil, nil, serde.ErrCorrupt
	}
	return b[:l], b[l:], nil
}

// appendSortableKey appends the order-preserving, self-delimiting encoding
// of v's value i (serde's Sortable*Key forms; bytes inverted when desc).
func appendSortableKey(dst []byte, typ Type, v *Vector, i int, desc bool) []byte {
	start := len(dst)
	switch typ {
	case Int64:
		dst = append(dst, serde.SortableInt64Key(v.Ints[i])...)
	case Float64:
		dst = append(dst, serde.SortableFloat64Key(v.Floats[i])...)
	default:
		// serde.SortableStringKey, written in place: 0x00 escaped as
		// 0x00 0xFF, terminated by 0x00 0x01.
		for s, i := v.Strings[i], 0; i < len(s); i++ {
			if s[i] == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, s[i])
			}
		}
		dst = append(dst, 0x00, 0x01)
	}
	if desc {
		for i := start; i < len(dst); i++ {
			dst[i] = ^dst[i]
		}
	}
	return dst
}

// appendEqualityKey appends the encoding of v's value i for equality
// grouping (compact, need not preserve order).
func appendEqualityKey(dst []byte, typ Type, v *Vector, i int) []byte {
	switch typ {
	case Int64:
		return serde.AppendInt64(dst, v.Ints[i])
	case Float64:
		return serde.AppendUint64(dst, math.Float64bits(v.Floats[i]))
	default:
		return append(dst, v.Strings[i]...)
	}
}
