package serde

import (
	"errors"
	"math"
	"runtime"
	"testing"
)

func applySel[T any](vals []T, sel []bool) []T {
	var out []T
	for i, v := range vals {
		if sel[i] {
			out = append(out, v)
		}
	}
	return out
}

func TestFilterIntColumnMatchesDecode(t *testing.T) {
	cases := map[string]IntColumn{
		"plain": {9, -4, 17, 0, 3, 9, 1 << 40},
		"rle":   {5, 5, 5, 5, 5, 7, 7, 7, 7, 7, 7, 7, 2},
		"delta": {100, 101, 102, 103, 104, 105, 106, 107, 108, 109},
		"empty": {},
	}
	keep := func(v int64) bool { return v >= 5 }
	for name, col := range cases {
		enc := col.Encode()
		sel, st, err := FilterIntColumn(enc, keep)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Rows != len(col) {
			t.Fatalf("%s: stats rows %d, want %d", name, st.Rows, len(col))
		}
		for i, v := range col {
			if sel[i] != keep(v) {
				t.Fatalf("%s: sel[%d] = %v for value %d", name, i, sel[i], v)
			}
		}
		got, err := SelectIntColumn(enc, sel)
		if err != nil {
			t.Fatalf("%s: select: %v", name, err)
		}
		want := applySel(col, sel)
		if len(got) != len(want) {
			t.Fatalf("%s: selected %d, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: [%d] = %d, want %d", name, i, got[i], want[i])
			}
		}
	}
}

func TestFilterIntColumnRLESavesEvals(t *testing.T) {
	col := make(IntColumn, 1000)
	for i := range col {
		col[i] = int64(i / 100) // 10 runs of 100
	}
	enc := col.Encode()
	if enc[0] != encRLEInt {
		t.Fatalf("expected RLE encoding, got tag %d", enc[0])
	}
	_, st, err := FilterIntColumn(enc, func(v int64) bool { return v%2 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if st.PredEvals != 10 {
		t.Fatalf("pred evals = %d, want 10 (one per run)", st.PredEvals)
	}
}

func TestFilterStringColumnDictSavesEvals(t *testing.T) {
	col := make(StringColumn, 600)
	kinds := []string{"emea", "apac", "amer"}
	for i := range col {
		col[i] = kinds[i%3]
	}
	enc := col.Encode()
	if enc[0] != encDictStr {
		t.Fatalf("expected dict encoding, got tag %d", enc[0])
	}
	sel, st, err := FilterStringColumn(enc, func(s string) bool { return s == "apac" })
	if err != nil {
		t.Fatal(err)
	}
	if st.PredEvals != 3 {
		t.Fatalf("pred evals = %d, want 3 (one per dict entry)", st.PredEvals)
	}
	got, err := SelectStringColumn(enc, sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("selected %d, want 200", len(got))
	}
	for _, s := range got {
		if s != "apac" {
			t.Fatalf("leaked %q", s)
		}
	}
}

func TestFilterStringColumnPlain(t *testing.T) {
	col := StringColumn{"a", "bb", "ccc", "dddd", "eeeee", "x", "yy", "zzz"}
	enc := col.encodePlain()
	sel, st, err := FilterStringColumn(enc, func(s string) bool { return len(s) > 2 })
	if err != nil {
		t.Fatal(err)
	}
	if st.PredEvals != len(col) {
		t.Fatalf("pred evals = %d, want %d", st.PredEvals, len(col))
	}
	got, err := SelectStringColumn(enc, sel)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ccc", "dddd", "eeeee", "zzz"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFloatColumnRoundTripAndFilter(t *testing.T) {
	col := FloatColumn{1.5, -2.25, 0, math.Inf(1), math.Inf(-1), 1.5, 1.5, math.NaN(), math.Copysign(0, -1)}
	enc := col.Encode()
	dec, err := DecodeFloatColumn(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(col) {
		t.Fatalf("decoded %d, want %d", len(dec), len(col))
	}
	for i := range col {
		if math.Float64bits(dec[i]) != math.Float64bits(col[i]) {
			t.Fatalf("[%d] = %v bits, want %v", i, dec[i], col[i])
		}
	}
	sel, _, err := FilterFloatColumn(enc, func(v float64) bool { return v > 0 })
	if err != nil {
		t.Fatal(err)
	}
	got, err := SelectFloatColumn(enc, sel)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, math.Inf(1), 1.5, 1.5}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFilterCorruptColumns(t *testing.T) {
	if _, _, err := FilterIntColumn(nil, func(int64) bool { return true }); err == nil {
		t.Fatal("nil int column accepted")
	}
	if _, _, err := FilterStringColumn([]byte{99, 1}, func(string) bool { return true }); err == nil {
		t.Fatal("unknown string tag accepted")
	}
	if _, err := SelectIntColumn(IntColumn{1, 2, 3}.Encode(), []bool{true}); err == nil {
		t.Fatal("selection length mismatch accepted")
	}
	if _, err := SelectStringColumn(StringColumn{"a", "b"}.Encode(), []bool{true}); err == nil {
		t.Fatal("selection length mismatch accepted")
	}
	// Truncated RLE body.
	enc := IntColumn{7, 7, 7, 7}.encodeRLE()
	if _, _, err := FilterIntColumn(enc[:3], func(int64) bool { return true }); err == nil {
		t.Fatal("truncated RLE accepted")
	}
}

// allocated returns the heap bytes f allocates.
func allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 { // the least of three: TotalAlloc also counts other goroutines
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// Six-byte columns whose header claims 2^28 rows: the decoders must turn
// them down before sizing anything from that count. (They used to
// allocate 2 GiB, 4 GiB and 256 MiB respectively on the way to
// ErrCorrupt.)
var rowCountBombs = []struct {
	name   string
	data   []byte
	decode func([]byte) error
}{
	{"plain int", []byte{encPlainInt, 0x80, 0x80, 0x80, 0x80, 0x01},
		func(b []byte) error { _, err := DecodeIntColumn(b); return err }},
	{"plain string", []byte{encPlainStr, 0x80, 0x80, 0x80, 0x80, 0x01},
		func(b []byte) error { _, err := DecodeStringColumn(b); return err }},
	{"packed int", []byte{encPackedInt, 0x80, 0x80, 0x80, 0x80, 0x01},
		func(b []byte) error { _, err := SelectIntColumn(b, nil); return err }},
	{"packed delta", []byte{encPackedDelta, 0x80, 0x80, 0x80, 0x80, 0x01},
		func(b []byte) error { _, _, err := FilterIntColumn(b, func(int64) bool { return true }); return err }},
	{"fixed float", []byte{encFixed64, 0x80, 0x80, 0x80, 0x80, 0x01},
		func(b []byte) error { _, err := DecodeFloatColumn(b); return err }},
	{"unknown tag", []byte{0x09, 0x80, 0x80, 0x80, 0x80, 0x01},
		func(b []byte) error { _, _, err := FilterIntColumn(b, func(int64) bool { return true }); return err }},
}

func TestRowCountBombsRejectedBeforeAllocating(t *testing.T) {
	for _, bomb := range rowCountBombs {
		var err error
		got := allocated(func() { err = bomb.decode(bomb.data) })
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", bomb.name, err)
		}
		if got >= 4<<10 {
			t.Errorf("%s: allocated %d bytes rejecting a %d-byte input", bomb.name, got, len(bomb.data))
		}
	}
	// An RLE column is the one encoding whose row count may exceed its
	// size, so its runs are checked before the output is sized: this one
	// claims 2^28 rows and delivers a single run of three.
	rle := append([]byte{encRLEInt, 0x80, 0x80, 0x80, 0x80, 0x01}, AppendInt64(nil, 7)...)
	rle = append(rle, 3)
	var err error
	if got := allocated(func() { _, err = DecodeFloatColumn(rle) }); !errors.Is(err, ErrCorrupt) || got >= 4<<10 {
		t.Errorf("short RLE: err = %v after allocating %d bytes", err, got)
	}
}

// TestSelectSkipsEmptyBlocks selects from columns of every numeric
// encoding with selections that leave whole blocks of packBlock rows
// empty — the first, the last, every other one, all but one row — and
// holds each to a full decode followed by a plain loop.
func TestSelectSkipsEmptyBlocks(t *testing.T) {
	const n = 5*packBlock + 17
	ints := make(IntColumn, n)
	for i := range ints {
		ints[i] = int64(i*i*31%5000) - 700
	}
	sorted, runs, floats := make(IntColumn, n), make(IntColumn, n), make(FloatColumn, n)
	for i := range sorted {
		sorted[i] = 1<<40 + int64(i)*3
		runs[i] = int64(i / 100)
		floats[i] = float64(ints[i]) * 0.25
	}
	floatRuns := make(FloatColumn, n)
	for i, v := range runs {
		floatRuns[i] = float64(v) / 3
	}
	columns := map[string][]byte{
		"plain":        ints.encodePlain(),
		"rle":          runs.encodeRLE(),
		"packed":       ints.encodePacked(encPackedInt),
		"packed delta": sorted.encodePacked(encPackedDelta),
		"fixed":        floats.Encode(),
		"float rle":    floatRuns.Encode(),
	}
	for name, tag := range map[string]byte{"fixed": encFixed64, "float rle": encRLEInt} {
		if columns[name][0] != tag {
			t.Fatalf("%s column has tag %d, want %d", name, columns[name][0], tag)
		}
	}
	selections := map[string]func(i int) bool{
		"first block only":  func(i int) bool { return i < packBlock },
		"last block only":   func(i int) bool { return i >= 5*packBlock },
		"every other block": func(i int) bool { return i/packBlock%2 == 1 && i%3 != 0 },
		"one row":           func(i int) bool { return i == 3*packBlock+5 },
		"none":              func(int) bool { return false },
		"block edges":       func(i int) bool { return i%packBlock == 0 || i%packBlock == packBlock-1 },
		"all but one block": func(i int) bool { return i/packBlock != 2 },
		"every row":         func(int) bool { return true },
	}
	for cname, enc := range columns {
		full, err := DecodeIntColumn(enc)
		if err != nil || len(full) != n {
			t.Fatalf("%s: decoded %d rows, err %v", cname, len(full), err)
		}
		for sname, pick := range selections {
			sel := make([]bool, n)
			for i := range sel {
				sel[i] = pick(i)
			}
			want := applySel(full, sel)
			got, err := SelectIntColumn(enc, sel)
			if err != nil {
				t.Fatalf("%s, %s: %v", cname, sname, err)
			}
			gotF, err := SelectFloatColumn(enc, sel)
			if err != nil {
				t.Fatalf("%s, %s: floats: %v", cname, sname, err)
			}
			if len(got) != len(want) || len(gotF) != len(want) {
				t.Fatalf("%s, %s: selected %d ints and %d floats, want %d", cname, sname, len(got), len(gotF), len(want))
			}
			for i, v := range want {
				if got[i] != v || math.Float64bits(gotF[i]) != uint64(v) {
					t.Fatalf("%s, %s: [%d] = %d / %v, want %d", cname, sname, i, got[i], gotF[i], v)
				}
			}
		}
	}
}
