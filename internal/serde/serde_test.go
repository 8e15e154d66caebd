package serde

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	records := [][2]string{
		{"alpha", "1"},
		{"", "empty key"},
		{"empty value", ""},
		{"", ""},
		{"binary\x00key", "binary\xffvalue"},
	}
	for _, r := range records {
		if err := w.Write([]byte(r[0]), []byte(r[1])); err != nil {
			t.Fatal(err)
		}
	}
	if w.BytesWritten() != int64(buf.Len()) {
		t.Fatalf("BytesWritten = %d, buffer has %d", w.BytesWritten(), buf.Len())
	}
	r := NewReader(&buf)
	for i, want := range records {
		rec, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if string(rec.Key) != want[0] || string(rec.Value) != want[1] {
			t.Fatalf("record %d = %q/%q, want %q/%q", i, rec.Key, rec.Value, want[0], want[1])
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(pairs [][2][]byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, p := range pairs {
			if err := w.Write(p[0], p[1]); err != nil {
				return false
			}
		}
		r := NewReader(&buf)
		for _, p := range pairs {
			rec, err := r.Read()
			if err != nil {
				return false
			}
			if !bytes.Equal(rec.Key, p[0]) || !bytes.Equal(rec.Value, p[1]) {
				return false
			}
		}
		_, err := r.Read()
		return err == io.EOF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInMemoryFramingMatchesStream: AppendRecord writes Writer's bytes,
// FramedLen predicts them, and Next reads them back as clipped views.
func TestInMemoryFramingMatchesStream(t *testing.T) {
	f := func(pairs [][2][]byte, long uint16) bool {
		pairs = append(pairs, [2][]byte{make([]byte, 128+int(long)), nil}) // a multi-byte length prefix
		var stream bytes.Buffer
		w := NewWriter(&stream)
		var buf []byte
		for _, p := range pairs {
			_ = w.Write(p[0], p[1])
			before := len(buf)
			buf = AppendRecord(buf, p[0], p[1])
			if FramedLen(len(p[0]), len(p[1])) != len(buf)-before {
				return false
			}
		}
		if !bytes.Equal(buf, stream.Bytes()) {
			return false
		}
		for _, p := range pairs {
			rec, rest, err := Next(buf)
			if err != nil || !bytes.Equal(rec.Key, p[0]) || !bytes.Equal(rec.Value, p[1]) ||
				cap(rec.Key) != len(rec.Key) || cap(rec.Value) != len(rec.Value) {
				return false
			}
			buf = rest
		}
		return len(buf) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	var frame []byte
	frame = AppendRecord(frame, []byte("key"), []byte("a long enough value"))
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := Next(frame[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Next on a frame cut at %d: %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestReaderDetectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write([]byte("key"), []byte("a long enough value")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 1; cut < len(data); cut++ {
		r := NewReader(bytes.NewReader(data[:cut]))
		_, err := r.Read()
		if err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
		if err == io.EOF {
			t.Fatalf("truncation at %d reported as clean EOF", cut)
		}
	}
}

func TestReaderRejectsImplausibleLengths(t *testing.T) {
	// Varint claims a 2^40-byte key.
	bad := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, 0x00}
	r := NewReader(bytes.NewReader(bad))
	if _, err := r.Read(); err == nil {
		t.Fatal("implausible length accepted")
	}
}

func TestInt64ZigzagRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		got, err := DecodeInt64(EncodeInt64(v))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInt64SmallMagnitudesAreShort(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64} {
		if n := len(EncodeInt64(v)); n != 1 {
			t.Fatalf("EncodeInt64(%d) = %d bytes, want 1", v, n)
		}
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	f := func(v float64) bool {
		got, err := DecodeFloat64(EncodeFloat64(v))
		if err != nil {
			return false
		}
		// NaN != NaN; compare bit patterns via re-encode.
		return bytes.Equal(EncodeFloat64(got), EncodeFloat64(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortableKeysPreserveOrder(t *testing.T) {
	f := func(a, b uint64) bool {
		ka, kb := SortableUint64Key(a), SortableUint64Key(b)
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortableKeyRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		got, err := FromSortableUint64Key(SortableUint64Key(v))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrorsOnShortInput(t *testing.T) {
	if _, err := Uint64([]byte{1, 2}); err == nil {
		t.Fatal("short Uint64 accepted")
	}
	if _, err := DecodeFloat64(nil); err == nil {
		t.Fatal("nil float accepted")
	}
	if _, err := FromSortableUint64Key([]byte{1}); err == nil {
		t.Fatal("short sortable key accepted")
	}
	if _, _, err := Int64(nil); err == nil {
		t.Fatal("empty Int64 accepted")
	}
}

func BenchmarkWriterThroughput(b *testing.B) {
	key := bytes.Repeat([]byte("k"), 10)
	val := bytes.Repeat([]byte("v"), 90)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	b.SetBytes(100)
	for i := 0; i < b.N; i++ {
		if buf.Len() > 64<<20 {
			buf.Reset()
		}
		_ = w.Write(key, val)
	}
}

func BenchmarkReaderThroughput(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	key := bytes.Repeat([]byte("k"), 10)
	val := bytes.Repeat([]byte("v"), 90)
	for i := 0; i < 10000; i++ {
		_ = w.Write(key, val)
	}
	data := buf.Bytes()
	b.SetBytes(100)
	b.ResetTimer()
	r := NewReader(bytes.NewReader(data))
	for i := 0; i < b.N; i++ {
		if _, err := r.Read(); err == io.EOF {
			r = NewReader(bytes.NewReader(data))
		}
	}
}
