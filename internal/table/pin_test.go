package table

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// orderedFingerprint digests the rows' printed form in order.
func orderedFingerprint(rows []Row) uint64 {
	h := fnv.New64a()
	for _, r := range rows {
		fmt.Fprintf(h, "%q\n", []any(r))
	}
	return h.Sum64()
}

// wire is what one query put through the shuffle and the broadcast path.
type wire struct{ records, bytes, broadcast int64 }

func wireOf(eng *core.Engine) wire {
	return wire{
		eng.Reg.Counter("shuffle_records_written").Value(),
		eng.Reg.Counter("shuffle_wire_bytes").Value(),
		eng.Reg.Counter("broadcast_bytes").Value(),
	}
}

func joinPinTables(t *testing.T, eng *core.Engine, stringKey bool) (*Table, *Table) {
	keyType := Int64
	key := func(i int) any { return int64(i) }
	if stringKey {
		keyType = String
		key = func(i int) any { return fmt.Sprintf("k\x00%d", i) }
	}
	ls := Schema{Cols: []Col{{Name: "k", Type: keyType}, {Name: "tag", Type: String}, {Name: "v", Type: Float64}}}
	rs := Schema{Cols: []Col{{Name: "w", Type: String}, {Name: "k", Type: keyType}}}
	var left, right []Row
	for i := 0; i < 300; i++ { // keys 0..49, six rows each; 0..9 have no right row
		left = append(left, Row{key(i % 50), fmt.Sprintf("l%d", i%7), float64(i) / 4})
	}
	for i := 0; i < 200; i++ { // keys 10..79; 50..79 have no left row
		right = append(right, Row{fmt.Sprintf("r%d", i%5), key(i%70 + 10)})
	}
	return mustTable(t, eng, ls, left, 3), mustTable(t, eng, rs, right, 2)
}

// The identity tests below pin what the operators put on the wire, charge
// to the fabric and answer, row order included, to constants recorded on
// the row-at-a-time implementation (the commit before typed column batches).

// TestJoinWireIdentity pins both joins over duplicate and one-sided keys.
func TestJoinWireIdentity(t *testing.T) {
	cases := []struct {
		name      string
		stringKey bool
		broadcast bool
		rows      int
		wire      wire
		print     uint64
	}{
		{"hash/int key", false, false, 720, wire{500, 6476, 0}, 0xf382de964179d0e6},
		{"hash/string key", true, false, 720, wire{500, 9780, 0}, 0xd1d62939b7f52c22},
		{"broadcast/int key", false, true, 720, wire{0, 0, 2514}, 0x56b9d67343092474},
		{"broadcast/string key", true, true, 720, wire{0, 0, 4800}, 0x67a3f1f4200143c0},
	}
	for _, c := range cases {
		eng := testEngine()
		left, right := joinPinTables(t, eng, c.stringKey)
		var j *Table
		var err error
		if c.broadcast {
			j, err = left.BroadcastJoin(right, "k", "k")
		} else {
			j, err = left.HashJoin(right, "k", "k", 4)
		}
		if err != nil {
			t.Fatal(err)
		}
		rows, err := j.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if w, p := wireOf(eng), orderedFingerprint(rows); len(rows) != c.rows || w != c.wire || p != c.print {
			t.Errorf("%s: %d rows wire %+v print %#x, pinned %d %+v %#x", c.name, len(rows), w, p, c.rows, c.wire, c.print)
		}
	}
}

// TestOrderByWireIdentity pins a sort on mixed directions with a string
// tiebreak: the shuffle traffic, the rows each range partition received
// (which is what the sampled split points decide) and the order.
func TestOrderByWireIdentity(t *testing.T) {
	eng := testEngine()
	sorted, err := mustTable(t, eng, salesSchema(), salesRows(2000, 9), 5).
		OrderByCols([]string{"units", "region", "price"}, []bool{true, false, true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sorted.Collect()
	if err != nil {
		t.Fatal(err)
	}
	parts, err := sorted.run()
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for _, p := range parts {
		sizes = append(sizes, p.Len())
	}
	const pinnedSizes, pinnedPrint = "[555 403 491 551]", uint64(0x7ab62cc206132185)
	pinnedWire := wire{2000, 91027, 0}
	if w, p := wireOf(eng), orderedFingerprint(rows); fmt.Sprint(sizes) != pinnedSizes || w != pinnedWire || p != pinnedPrint {
		t.Errorf("partition sizes %v wire %+v print %#x, pinned %s %+v %#x", sizes, w, p, pinnedSizes, pinnedWire, pinnedPrint)
	}
}

// TestScanCounterIdentity pins a scan with two pushed predicates (one
// zone-prunable) and a filter above it: rows, order and all six counters.
func TestScanCounterIdentity(t *testing.T) {
	eng := testEngine()
	rows := salesRows(3000, 13)
	for i := range rows { // partition 3 of 4 holds only units 1..2: zone-pruned
		if i%4 == 3 {
			rows[i][2] = int64(1 + i%2)
		}
	}
	ct, err := BuildColumnar(salesSchema(), rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	preds := []ColPredicate{
		{Col: 2, Keep: func(v int64) bool { return v >= 5 }, SkipAll: func(_, max any) bool { return max.(int64) < 5 }},
		{Col: 0, Keep: func(v string) bool { return v != "emea" }},
	}
	scan, err := ct.Scan(eng, preds, []int{1, 2, 3}, reg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := scan.Where(func(r Row) bool { return r[2].(float64) < 50 || r[1].(int64) == 10 }).Collect()
	if err != nil {
		t.Fatal(err)
	}
	var ctrs []int64
	for _, name := range []string{CtrRowsScanned, CtrRowsPruned, CtrRowsOut, CtrBytesDecoded, CtrBytesSkipped, CtrPredEvals} {
		ctrs = append(ctrs, reg.Counter(name).Value())
	}
	// Bytes decoded and skipped were 24845 and 7537 before int columns
	// were bit-packed and float columns stored fixed-width.
	const pinnedCtrs, pinnedRows, pinnedPrint = "[2250 750 897 23874 7562 2259]", 542, uint64(0xff5af98ea12fba9)
	if p := orderedFingerprint(got); fmt.Sprint(ctrs) != pinnedCtrs || len(got) != pinnedRows || p != pinnedPrint {
		t.Errorf("counters %v rows %d print %#x, pinned %s %d %#x", ctrs, len(got), p, pinnedCtrs, pinnedRows, pinnedPrint)
	}
}
