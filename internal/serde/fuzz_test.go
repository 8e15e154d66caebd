package serde

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

// Fuzz targets for the decode paths: arbitrary bytes must never panic —
// every malformed input has to surface as ErrCorrupt (or a clean EOF),
// and anything that does decode must survive a re-encode/re-decode
// round trip unchanged.

func FuzzReaderDecode(f *testing.F) {
	// A well-formed two-record stream, a truncated body, an implausible
	// length prefix, and junk.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Write([]byte("key"), []byte("value"))
	_ = w.Write(nil, []byte{0x00, 0xff})
	f.Add(buf.Bytes())
	f.Add([]byte{0x05, 0x01, 'a'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte("not a record stream"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var recs []Record
		for {
			rec, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("decode error is not ErrCorrupt: %v", err)
				}
				return // malformed input, correctly classified
			}
			recs = append(recs, Record{
				Key:   append([]byte(nil), rec.Key...),
				Value: append([]byte(nil), rec.Value...),
			})
		}
		// Clean decode: re-encoding and re-decoding must reproduce the
		// records (the byte stream itself may differ — varints accept
		// non-minimal encodings the writer never emits).
		var out bytes.Buffer
		w := NewWriter(&out)
		for _, rec := range recs {
			if err := w.Write(rec.Key, rec.Value); err != nil {
				t.Fatal(err)
			}
		}
		r2 := NewReader(bytes.NewReader(out.Bytes()))
		for i, want := range recs {
			got, err := r2.Read()
			if err != nil {
				t.Fatalf("re-decode record %d: %v", i, err)
			}
			if !bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Value, want.Value) {
				t.Fatalf("record %d changed across round trip", i)
			}
		}
		if _, err := r2.Read(); err != io.EOF {
			t.Fatalf("re-decode has trailing data: %v", err)
		}
	})
}

func FuzzIntColumnDecode(f *testing.F) {
	f.Add(IntColumn{1, 2, 3}.Encode())
	f.Add(IntColumn{7, 7, 7, 7, 7, 7, 7, 7}.Encode())       // RLE wins
	f.Add(IntColumn{100, 101, 102, 103, 104, 105}.Encode()) // delta wins
	f.Add([]byte{encRLEInt, 0xff, 0xff, 0xff, 0xff, 0x7f})  // huge row count
	f.Add([]byte{encDeltaInt, 0x02, 0x02})                  // truncated deltas
	f.Add([]byte{0x09, 0x01})                               // unknown tag
	for _, seed := range packedSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		col, err := DecodeIntColumn(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error is not ErrCorrupt: %v", err)
			}
			return
		}
		got, err := DecodeIntColumn(col.Encode())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(got) != len(col) {
			t.Fatalf("round trip changed length: %d vs %d", len(got), len(col))
		}
		for i := range col {
			if got[i] != col[i] {
				t.Fatalf("round trip changed value %d: %d vs %d", i, got[i], col[i])
			}
		}
	})
}

func FuzzStringColumnDecode(f *testing.F) {
	f.Add(StringColumn{"a", "b", "c"}.Encode())
	f.Add(StringColumn{"x", "x", "x", "x", "y", "y"}.Encode())   // dict wins
	f.Add([]byte{encDictStr, 0x01, 0x01, 'a', 0x02, 0x00, 0x05}) // index out of range
	f.Add([]byte{encPlainStr, 0x03, 0x01, 'q'})                  // truncated strings
	f.Fuzz(func(t *testing.T, data []byte) {
		col, err := DecodeStringColumn(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error is not ErrCorrupt: %v", err)
			}
			return
		}
		got, err := DecodeStringColumn(col.Encode())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(got) != len(col) {
			t.Fatalf("round trip changed length: %d vs %d", len(got), len(col))
		}
		for i := range col {
			if got[i] != col[i] {
				t.Fatalf("round trip changed value %d: %q vs %q", i, got[i], col[i])
			}
		}
	})
}

// FuzzSelectColumns holds the encoding-aware scans to the plain decoders:
// SelectInt/Float/StringColumn under a selection and both Filter routines
// must agree with a full decode followed by a plain loop, fail only with
// ErrCorrupt, and turn a malformed column down without allocating more
// than a small multiple of its size. A well-formed RLE column may
// legitimately expand to maxColumnRows, so above 1<<16 claimed rows only
// the selection-length check is exercised.
func FuzzSelectColumns(f *testing.F) {
	f.Add(IntColumn{9, -4, 17, 0, 3, 9, 1 << 40}.Encode(), []byte{0b1011})
	f.Add(IntColumn{5, 5, 5, 5, 5, 7, 7, 7, 7, 7, 7, 7, 2}.Encode(), []byte{1, 0, 0})
	f.Add(IntColumn{100, 101, 102, 103, 104, 105}.Encode(), []byte{0, 1})
	f.Add(FloatColumn{1.5, 1.5, 1.5, -2, 0}.Encode(), []byte{1})
	f.Add(StringColumn{"a", "b", "c"}.Encode(), []byte{1, 1, 0})
	f.Add(StringColumn{"x", "x", "x", "x", "y", "y"}.Encode(), []byte{0, 1})
	for _, seed := range packedSeeds() {
		f.Add(seed, []byte{1, 0, 0, 1, 0})
	}
	for _, bomb := range rowCountBombs {
		f.Add(bomb.data, []byte{1})
	}
	f.Fuzz(func(t *testing.T, data, selBits []byte) {
		_, n, _, err := columnHeader(data)
		if err != nil {
			n = 0
		}
		small := n <= 1<<16
		// The selection has the column's length while that is small; past
		// it the lengths differ and every Select must say so.
		sel := make([]bool, min(n, 1<<16))
		for i := range sel {
			sel[i] = len(selBits) > 0 && selBits[i%len(selBits)]&1 == 1
		}
		// try runs one decoder call and holds it to the error and
		// allocation contract; it reports whether the call succeeded.
		try := func(what string, call func() error) bool {
			var err error
			got := allocated(func() { err = call() })
			if err == nil {
				return true
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: error is not ErrCorrupt: %v", what, err)
			}
			if limit := uint64(64*len(data) + 4<<10); got > limit {
				t.Fatalf("%s: allocated %d bytes rejecting a %d-byte input", what, got, len(data))
			}
			return false
		}

		var ints, intsSel []int64
		var floatsSel []float64
		var strs, strsSel []string
		var intKeep, strKeep []bool
		var intStats, strStats FilterStats
		keepInt := func(v int64) bool { return v%3 == 0 }
		keepStr := func(s string) bool { return len(s)%2 == 0 }

		okIntSel := try("SelectIntColumn", func() (err error) { intsSel, err = SelectIntColumn(data, sel); return })
		okFloatSel := try("SelectFloatColumn", func() (err error) { floatsSel, err = SelectFloatColumn(data, sel); return })
		okStrSel := try("SelectStringColumn", func() (err error) { strsSel, err = SelectStringColumn(data, sel); return })
		if !small {
			if okIntSel || okFloatSel || okStrSel {
				t.Fatalf("a %d-entry selection was accepted for a %d-row column", len(sel), n)
			}
			return
		}
		okInts := try("DecodeIntColumn", func() (err error) { ints, err = DecodeIntColumn(data); return })
		okStrs := try("DecodeStringColumn", func() (err error) { strs, err = DecodeStringColumn(data); return })
		okIntFilter := try("FilterIntColumn", func() (err error) { intKeep, intStats, err = FilterIntColumn(data, keepInt); return })
		okStrFilter := try("FilterStringColumn", func() (err error) { strKeep, strStats, err = FilterStringColumn(data, keepStr); return })

		if okIntSel != okInts || okFloatSel != okInts || okIntFilter != okInts {
			t.Fatalf("int column: decode ok=%v, select ok=%v, float select ok=%v, filter ok=%v",
				okInts, okIntSel, okFloatSel, okIntFilter)
		}
		if okStrSel != okStrs || okStrFilter != okStrs {
			t.Fatalf("string column: decode ok=%v, select ok=%v, filter ok=%v", okStrs, okStrSel, okStrFilter)
		}
		if okInts {
			if uint64(len(ints)) != n || intStats.Rows != len(ints) || len(intKeep) != len(ints) {
				t.Fatalf("int column of %d rows: decoded %d, filter saw %d", n, len(ints), intStats.Rows)
			}
			at := 0
			for i, v := range ints {
				if intKeep[i] != keepInt(v) {
					t.Fatalf("FilterIntColumn[%d] = %v for value %d", i, intKeep[i], v)
				}
				if !sel[i] {
					continue
				}
				if at >= len(intsSel) || at >= len(floatsSel) ||
					intsSel[at] != v || math.Float64bits(floatsSel[at]) != uint64(v) {
					t.Fatalf("selected row %d (position %d) is not %d", i, at, v)
				}
				at++
			}
			if at != len(intsSel) || at != len(floatsSel) {
				t.Fatalf("selected %d ints and %d floats, want %d", len(intsSel), len(floatsSel), at)
			}
		}
		if okStrs {
			if uint64(len(strs)) != n || strStats.Rows != len(strs) || len(strKeep) != len(strs) {
				t.Fatalf("string column of %d rows: decoded %d, filter saw %d", n, len(strs), strStats.Rows)
			}
			at := 0
			for i, s := range strs {
				if strKeep[i] != keepStr(s) {
					t.Fatalf("FilterStringColumn[%d] = %v for value %q", i, strKeep[i], s)
				}
				if !sel[i] {
					continue
				}
				if at >= len(strsSel) || strsSel[at] != s {
					t.Fatalf("selected row %d (position %d) is not %q", i, at, s)
				}
				at++
			}
			if at != len(strsSel) {
				t.Fatalf("selected %d strings, want %d", len(strsSel), at)
			}
		}
	})
}

// packedSeeds are one column of each numeric encoding that has no seed
// above it: packed values, packed deltas, fixed floats, a width-0 block
// and a 64-bit-wide one, each over more than one block.
func packedSeeds() [][]byte {
	vals, strided, same, wide := make(IntColumn, 100), make(IntColumn, 100), make(IntColumn, 70), make(IntColumn, 70)
	floats := make(FloatColumn, 70)
	for i := range vals {
		vals[i] = int64(i*i*37%4000) - 9
		strided[i] = 1_000_000 + int64(i)*4 + int64(i/64)
	}
	for i := range same {
		same[i] = 5
		wide[i] = math.MinInt64 + int64(i)
		floats[i] = float64(i*i%40000) * 0.25
	}
	wide[3] = math.MaxInt64
	return [][]byte{
		vals.encodePacked(encPackedInt),
		strided.encodePacked(encPackedDelta),
		floats.Encode(),
		same.encodePacked(encPackedInt),
		wide.encodePacked(encPackedInt),
	}
}
