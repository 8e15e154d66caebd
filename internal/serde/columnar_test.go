package serde

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

// encodePlain writes the column as zigzag varints, the encoding
// IntColumn.Encode chose before packing: the choice tests measure against
// its size, and the decoders still read it.
func (c IntColumn) encodePlain() []byte {
	out := []byte{encPlainInt}
	out = binary.AppendUvarint(out, uint64(len(c)))
	for _, v := range c {
		out = AppendInt64(out, v)
	}
	return out
}

func TestIntColumnRoundTrip(t *testing.T) {
	cases := map[string]IntColumn{
		"empty":     {},
		"single":    {42},
		"mixed":     {1, -5, 1 << 40, 0, 7, 7, 7},
		"all-same":  {9, 9, 9, 9, 9, 9, 9, 9},
		"ascending": {100, 101, 102, 103, 104},
		"negatives": {-1, -2, -3, -1000000},
	}
	for name, col := range cases {
		enc := col.Encode()
		dec, err := DecodeIntColumn(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(dec) != len(col) {
			t.Fatalf("%s: length %d, want %d", name, len(dec), len(col))
		}
		for i := range col {
			if dec[i] != col[i] {
				t.Fatalf("%s[%d] = %d, want %d", name, i, dec[i], col[i])
			}
		}
	}
}

func TestIntColumnRoundTripProperty(t *testing.T) {
	f := func(vals []int64) bool {
		col := IntColumn(vals)
		dec, err := DecodeIntColumn(col.Encode())
		if err != nil || len(dec) != len(col) {
			return false
		}
		for i := range col {
			if dec[i] != col[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntColumnRLEWinsOnRuns(t *testing.T) {
	runs := make(IntColumn, 10000)
	for i := range runs {
		runs[i] = int64(i / 1000) // 10 long runs
	}
	enc := runs.Encode()
	plain := runs.encodePlain()
	if len(enc) >= len(plain)/10 {
		t.Fatalf("run data encoded to %d bytes, plain is %d — RLE not chosen?", len(enc), len(plain))
	}
}

func TestIntColumnDeltaWinsOnSorted(t *testing.T) {
	sorted := make(IntColumn, 10000)
	for i := range sorted {
		sorted[i] = 1_000_000_000 + int64(i)*3
	}
	enc := sorted.Encode()
	plain := sorted.encodePlain()
	if len(enc) >= len(plain)/2 {
		t.Fatalf("sorted data encoded to %d bytes, plain is %d — delta not chosen?", len(enc), len(plain))
	}
}

func TestStringColumnRoundTrip(t *testing.T) {
	cases := map[string]StringColumn{
		"empty":    {},
		"single":   {"hello"},
		"mixed":    {"a", "", "bb", "a", "ccc", "a"},
		"binary":   {"\x00\x01", "\xff"},
		"repeated": {"x", "x", "x", "x"},
	}
	for name, col := range cases {
		dec, err := DecodeStringColumn(col.Encode())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(dec) != len(col) {
			t.Fatalf("%s: length %d, want %d", name, len(dec), len(col))
		}
		for i := range col {
			if dec[i] != col[i] {
				t.Fatalf("%s[%d] = %q, want %q", name, i, dec[i], col[i])
			}
		}
	}
}

func TestStringColumnRoundTripProperty(t *testing.T) {
	f := func(vals []string) bool {
		col := StringColumn(vals)
		dec, err := DecodeStringColumn(col.Encode())
		if err != nil || len(dec) != len(col) {
			return false
		}
		for i := range col {
			if dec[i] != col[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringColumnDictWinsOnLowCardinality(t *testing.T) {
	col := make(StringColumn, 5000)
	countries := []string{"united-states", "germany", "japan", "brazil"}
	for i := range col {
		col[i] = countries[i%len(countries)]
	}
	enc := col.Encode()
	plain := col.encodePlain()
	if len(enc) >= len(plain)/4 {
		t.Fatalf("low-cardinality column encoded to %d bytes, plain is %d", len(enc), len(plain))
	}
}

func TestStringColumnHighCardinalityFallsBackToPlain(t *testing.T) {
	col := make(StringColumn, 100)
	for i := range col {
		col[i] = string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('A'+i%26))
	}
	if col.encodeDict() != nil && len(col.encodeDict()) < len(col.encodePlain()) {
		// Dict may still win legitimately; just verify round trip.
		t.Skip("dict legitimately smaller")
	}
	dec, err := DecodeStringColumn(col.Encode())
	if err != nil || len(dec) != len(col) {
		t.Fatal("high-cardinality round trip failed")
	}
}

func TestColumnDecodeRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {}, {99}, {encPlainInt}, {encRLEInt, 5, 1}, {encDictStr, 10}} {
		if _, err := DecodeIntColumn(b); err == nil && len(b) > 0 && b[0] != encDictStr {
			t.Fatalf("DecodeIntColumn(%v) accepted garbage", b)
		}
		if _, err := DecodeStringColumn(b); err == nil && len(b) > 0 && b[0] == encDictStr {
			t.Fatalf("DecodeStringColumn(%v) accepted garbage", b)
		}
	}
}

func BenchmarkIntColumnEncode(b *testing.B) {
	col := make(IntColumn, 10000)
	for i := range col {
		col[i] = int64(i * 7)
	}
	b.SetBytes(int64(len(col) * 8))
	for i := 0; i < b.N; i++ {
		_ = col.Encode()
	}
}

func BenchmarkStringColumnDictEncode(b *testing.B) {
	col := make(StringColumn, 10000)
	words := []string{"get", "put", "scan", "delete"}
	for i := range col {
		col[i] = words[i%4]
	}
	for i := 0; i < b.N; i++ {
		_ = col.Encode()
	}
}

// TestNumericChooserPicks holds each numeric encoder to a column shape it
// wins on: ids uniform in a range (sales.cust_id), every fourth id
// (customer.cust_id in one of four partitions), a one-row chunk, quarter
// amounts (sales.amount), and long runs of an int or a float, which no
// star column has.
func TestNumericChooserPicks(t *testing.T) {
	uniform, strided, runs := make(IntColumn, 10000), make(IntColumn, 1000), make(IntColumn, 1000)
	amounts, repeated := make(FloatColumn, 1000), make(FloatColumn, 1000)
	for i := range uniform {
		uniform[i] = int64(i * 7919 % 4000)
	}
	for i := range strided {
		strided[i] = int64(4*i + 1)
		runs[i] = int64(i / 100)
		amounts[i] = float64(i*7919%40000) * 0.25
		repeated[i] = 19.99
	}
	for name, c := range map[string]struct {
		enc []byte
		tag byte
	}{
		"uniform ids":  {uniform.Encode(), encPackedInt},
		"strided ids":  {strided.Encode(), encPackedDelta},
		"runs":         {runs.Encode(), encRLEInt},
		"one row":      {IntColumn{300}.Encode(), encPackedInt},
		"amounts":      {amounts.Encode(), encFixed64},
		"float repeat": {repeated.Encode(), encRLEInt},
	} {
		if c.enc[0] != c.tag {
			t.Errorf("%s: tag %d, want %d", name, c.enc[0], c.tag)
		}
	}
	// Packed: 12 bits a value and a 3-byte frame per block, against 1.97
	// bytes a value as varints.
	if got := len(uniform.Encode()); got > 10000*3/2+157*3+8 {
		t.Errorf("uniform ids packed to %d bytes", got)
	}
}

// TestPackedRoundTripProperty round-trips both packed encodings over
// random values narrowed to every width from 0 to 64 bits, with column
// lengths on and off block boundaries.
func TestPackedRoundTripProperty(t *testing.T) {
	f := func(vals []int64, shift uint8, extra uint8) bool {
		col := make(IntColumn, len(vals)+int(extra)%3*packBlock)
		for i := range col {
			col[i] = int64(i)
			if len(vals) > 0 {
				col[i] = vals[i%len(vals)] >> (shift % 65)
			}
		}
		for _, tag := range []byte{encPackedInt, encPackedDelta} {
			dec, err := DecodeIntColumn(col.encodePacked(tag))
			if err != nil || len(dec) != len(col) {
				return false
			}
			for i := range col {
				if dec[i] != col[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkNumericDecode decodes 10 000-value columns shaped like the
// star schema's: ids uniform in [0, 4000) (packed, 12 bits), the same ids
// under a selection of every third row, and quarter amounts (fixed
// width).
func BenchmarkNumericDecode(b *testing.B) {
	ids, amounts := make(IntColumn, 10000), make(FloatColumn, 10000)
	sel := make([]bool, len(ids))
	for i := range ids {
		ids[i] = int64(i * 7919 % 4000)
		amounts[i] = float64(i*7919%40000) * 0.25
		sel[i] = i%3 == 0
	}
	idEnc, amountEnc := ids.Encode(), amounts.Encode()
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"ids", func() error { _, err := SelectIntColumn(idEnc, nil); return err }},
		{"ids-sel", func() error { _, err := SelectIntColumn(idEnc, sel); return err }},
		{"amounts", func() error { _, err := SelectFloatColumn(amountEnc, nil); return err }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(ids)) * 8)
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
