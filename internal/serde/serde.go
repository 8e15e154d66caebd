// Package serde defines the wire formats the framework moves data in: a
// varint-framed key/value record stream (the shuffle and DFS block format)
// and typed codecs for common scalar types. A columnar batch format with
// dictionary and run-length encodings lives in columnar.go.
package serde

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"unsafe"
)

// ErrCorrupt is returned when a stream fails structural validation.
var ErrCorrupt = errors.New("serde: corrupt stream")

// Record is one key/value pair on the wire. Key and Value alias the
// decoder's buffer until the next Read; copy them to retain.
type Record struct {
	Key, Value []byte
}

// Writer encodes records as [varint keyLen][varint valLen][key][value].
type Writer struct {
	w   io.Writer
	buf [2 * binary.MaxVarintLen64]byte
	n   int64
}

// NewWriter returns a record writer on w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Write appends one record. It reports the first underlying write error.
func (w *Writer) Write(key, value []byte) error {
	n := binary.PutUvarint(w.buf[:], uint64(len(key)))
	n += binary.PutUvarint(w.buf[n:], uint64(len(value)))
	if _, err := w.w.Write(w.buf[:n]); err != nil {
		return err
	}
	if _, err := w.w.Write(key); err != nil {
		return err
	}
	if _, err := w.w.Write(value); err != nil {
		return err
	}
	w.n += int64(n + len(key) + len(value))
	return nil
}

// BytesWritten returns the total encoded bytes so far.
func (w *Writer) BytesWritten() int64 { return w.n }

// Reader decodes a record stream produced by Writer.
type Reader struct {
	r   *countingByteReader
	buf []byte
}

type countingByteReader struct {
	r   io.Reader
	one [1]byte
}

func (c *countingByteReader) ReadByte() (byte, error) {
	_, err := io.ReadFull(c.r, c.one[:])
	return c.one[0], err
}

// NewReader returns a record reader on r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: &countingByteReader{r: r}}
}

// maxRecordLen guards against corrupt length prefixes allocating the world.
const maxRecordLen = 1 << 30

// Read returns the next record, or io.EOF at a clean end of stream. The
// returned slices are valid until the next Read.
func (r *Reader) Read() (Record, error) {
	kl, err := binary.ReadUvarint(r.r)
	if err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	vl, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Record{}, fmt.Errorf("%w: truncated value length", ErrCorrupt)
	}
	if kl > maxRecordLen || vl > maxRecordLen {
		return Record{}, fmt.Errorf("%w: implausible record size %d/%d", ErrCorrupt, kl, vl)
	}
	need := int(kl + vl)
	if cap(r.buf) < need {
		r.buf = make([]byte, need)
	}
	r.buf = r.buf[:need]
	if _, err := io.ReadFull(r.r.r, r.buf); err != nil {
		return Record{}, fmt.Errorf("%w: truncated record body", ErrCorrupt)
	}
	return Record{Key: r.buf[:kl], Value: r.buf[kl:need]}, nil
}

// AppendRecord appends one record to dst in Writer's framing — the
// in-memory form of Writer.Write for callers that own the buffer.
func AppendRecord(dst, key, value []byte) []byte {
	dst = AppendHeader(dst, len(key), len(value))
	dst = append(dst, key...)
	return append(dst, value...)
}

// AppendHeader appends the lengths that open a record's frame, for callers
// that append the key and value themselves.
func AppendHeader(dst []byte, klen, vlen int) []byte {
	dst = binary.AppendUvarint(dst, uint64(klen))
	return binary.AppendUvarint(dst, uint64(vlen))
}

// FramedLen returns how many bytes AppendRecord adds for a key and value
// of the given lengths.
func FramedLen(klen, vlen int) int {
	return uvarintLen(uint64(klen)) + uvarintLen(uint64(vlen)) + klen + vlen
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Next decodes the first record of buf in place — the in-memory form of
// Reader.Read. Key and Value alias buf, capacity-clipped so appending to
// one cannot reach its neighbour; rest is what follows the record. An
// empty buf is the caller's end of stream, not Next's: it reports
// ErrCorrupt like any other short frame.
func Next(buf []byte) (rec Record, rest []byte, err error) {
	kl, n := binary.Uvarint(buf)
	if n <= 0 {
		return Record{}, nil, fmt.Errorf("%w: bad key length", ErrCorrupt)
	}
	vl, m := binary.Uvarint(buf[n:])
	if m <= 0 {
		return Record{}, nil, fmt.Errorf("%w: truncated value length", ErrCorrupt)
	}
	body := buf[n+m:]
	if kl > uint64(len(body)) || vl > uint64(len(body))-kl {
		return Record{}, nil, fmt.Errorf("%w: truncated record body", ErrCorrupt)
	}
	end := int(kl + vl)
	return Record{Key: body[:kl:kl], Value: body[kl:end:end]}, body[end:], nil
}

// Frozen returns b's bytes as a string without copying them. The caller
// promises that nothing writes those bytes again while the string, or one
// cut from it, lives: Go assumes a string never changes. A kept string
// keeps b's whole backing array alive.
func Frozen(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// AppendUint64 appends v in little-endian fixed width.
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// Uint64 decodes a fixed-width little-endian uint64.
func Uint64(b []byte) (uint64, error) {
	if len(b) < 8 {
		return 0, ErrCorrupt
	}
	return binary.LittleEndian.Uint64(b), nil
}

// zigzag maps signed to unsigned so small magnitudes stay small varints.
func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendInt64 appends v as a zigzag varint.
func AppendInt64(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, zigzag(v))
}

// Int64 decodes a zigzag varint, returning the value and bytes consumed.
func Int64(b []byte) (int64, int, error) {
	u, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, ErrCorrupt
	}
	return unzigzag(u), n, nil
}

// EncodeInt64 encodes v standalone.
func EncodeInt64(v int64) []byte { return AppendInt64(nil, v) }

// DecodeInt64 decodes a standalone int64.
func DecodeInt64(b []byte) (int64, error) {
	v, _, err := Int64(b)
	return v, err
}

// EncodeFloat64 encodes v as fixed 8 bytes (IEEE 754 bits, little-endian).
func EncodeFloat64(v float64) []byte {
	return AppendUint64(nil, math.Float64bits(v))
}

// DecodeFloat64 decodes EncodeFloat64's output.
func DecodeFloat64(b []byte) (float64, error) {
	u, err := Uint64(b)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(u), nil
}

// SortableUint64Key encodes v so that byte-wise comparison matches numeric
// order (big-endian) — the TeraSort key format.
func SortableUint64Key(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// FromSortableUint64Key inverts SortableUint64Key.
func FromSortableUint64Key(b []byte) (uint64, error) {
	if len(b) < 8 {
		return 0, ErrCorrupt
	}
	return binary.BigEndian.Uint64(b), nil
}
