package table

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/serde"
)

func aggTestSchema() Schema {
	return Schema{Cols: []Col{
		{Name: "ks", Type: String}, {Name: "ki", Type: Int64}, {Name: "kf", Type: Float64},
		{Name: "vi", Type: Int64}, {Name: "vf", Type: Float64}, {Name: "vs", Type: String},
	}}
}

// allAggs is every legal AggOp x column type pairing.
var allAggs = []Agg{
	{Op: Count},
	{Op: Sum, Col: "vi"}, {Op: Sum, Col: "vf"},
	{Op: Avg, Col: "vi"}, {Op: Avg, Col: "vf"},
	{Op: Min, Col: "vi"}, {Op: Min, Col: "vf"}, {Op: Min, Col: "vs"},
	{Op: Max, Col: "vi"}, {Op: Max, Col: "vf"}, {Op: Max, Col: "vs"},
}

// aggTestRows draws n rows; every float is a small multiple of 0.25, so
// sums are exact in any order. groups: 1 = one group, 0 = every row its
// own group, otherwise keys drawn from small sets (string keys share
// prefixes and contain 0x00).
func aggTestRows(n, groups int, seed uint64) []Row {
	gen := rng.New(seed)
	strs := []string{"", "a", "a\x00", "a\x00b", "a\x00\x01", "ab", "b"}
	rows := make([]Row, n)
	for i := range rows {
		ks, ki, kf := strs[gen.Intn(len(strs))], int64(gen.Intn(3)-1), float64(gen.Intn(3))*1.25-1.25
		switch groups {
		case 1:
			ks, ki, kf = "a\x00", -1, 0
		case 0:
			ki = int64(i)
		}
		rows[i] = Row{ks, ki, kf,
			int64(gen.Intn(101) - 50), float64(gen.Intn(41)-20) / 4, strs[gen.Intn(len(strs))]}
	}
	return rows
}

// naiveAgg is the reference: a map from the group's key values to one
// accumulator per spec, folded over the rows in input order.
func naiveAgg(s Schema, rows []Row, keys []string, aggs []Agg) map[string]string {
	type acc struct {
		n        int64
		sum      float64
		min, max any
	}
	less := func(a, b any) bool {
		switch x := a.(type) {
		case int64:
			return x < b.(int64)
		case float64:
			return x < b.(float64)
		}
		return a.(string) < b.(string)
	}
	groups := map[string][]acc{}
	for _, r := range rows {
		var kv []any
		for _, k := range keys {
			kv = append(kv, r[s.Index(k)])
		}
		k := fmt.Sprintf("%q", kv)
		if groups[k] == nil {
			groups[k] = make([]acc, len(aggs))
		}
		for i, a := range aggs {
			st := &groups[k][i]
			st.n++
			if a.Op == Count {
				continue
			}
			v := r[s.Index(a.Col)]
			switch x := v.(type) {
			case int64:
				st.sum += float64(x)
			case float64:
				st.sum += x
			}
			if st.n == 1 || less(v, st.min) {
				st.min = v
			}
			if st.n == 1 || less(st.max, v) {
				st.max = v
			}
		}
	}
	out := map[string]string{}
	for k, accs := range groups {
		var vals []any
		for i, a := range aggs {
			st := accs[i]
			isInt := a.Op != Count && s.Cols[s.Index(a.Col)].Type == Int64
			switch {
			case a.Op == Count:
				vals = append(vals, st.n)
			case a.Op == Sum && isInt:
				vals = append(vals, int64(st.sum))
			case a.Op == Sum:
				vals = append(vals, st.sum)
			case a.Op == Avg:
				vals = append(vals, st.sum/float64(st.n))
			case a.Op == Min:
				vals = append(vals, st.min)
			default:
				vals = append(vals, st.max)
			}
		}
		out[k] = fmt.Sprintf("%q", vals)
	}
	return out
}

func TestGroupedAggMatchesNaiveFold(t *testing.T) {
	schema := aggTestSchema()
	inputs := []struct {
		name string
		rows []Row
	}{
		{"empty", nil},
		{"one group", aggTestRows(200, 1, 3)},
		{"every row its own group", aggTestRows(200, 0, 4)},
		{"mixed", aggTestRows(600, 2, 5)},
	}
	for _, in := range inputs {
		for _, keys := range [][]string{{}, {"ks"}, {"ks", "ki", "kf"}} {
			for _, threshold := range []int64{0, 16} { // 16 B: every record spills
				name := fmt.Sprintf("%s/%d keys/spill %d", in.name, len(keys), threshold)
				eng := spillingEngine(threshold)
				got, err := mustTable(t, eng, schema, in.rows, 4).GroupBy(keys...).Agg(3, allAggs...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				rows, err := got.Collect()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want := naiveAgg(schema, in.rows, keys, allAggs)
				if len(rows) != len(want) {
					t.Fatalf("%s: %d groups, want %d", name, len(rows), len(want))
				}
				for _, r := range rows {
					k := fmt.Sprintf("%q", []any(r[:len(keys)]))
					if g := fmt.Sprintf("%q", []any(r[len(keys):])); g != want[k] {
						t.Fatalf("%s: group %s = %s, want %s", name, k, g, want[k])
					}
				}
				if spills := eng.Reg.Counter("shuffle_spills").Value(); threshold > 0 && len(in.rows) > 0 && spills == 0 {
					t.Fatalf("%s: no map task spilled", name)
				}
			}
		}
	}
}

func TestAvgOfNothingIsNaN(t *testing.T) {
	plans := []aggPlan{{spec: Agg{Op: Avg, Col: "vf"}, colIdx: 4, typ: Float64}}
	tab := &aggTable{aggLayout: newAggLayout(plans)}
	var out Vector
	if tab.render(0, tab.group(nil), &out); !math.IsNaN(out.Floats[0]) {
		t.Fatalf("avg over zero rows = %v, want NaN", out.Floats[0])
	}
}

// rowsChecksum is an order-independent digest of the rows' printed form.
func rowsChecksum(rows []Row) uint64 {
	var sum uint64
	for _, r := range rows {
		h := fnv.New64a()
		fmt.Fprintf(h, "%q", []any(r))
		sum += h.Sum64()
	}
	return sum
}

// TestAggWireIdentity pins what two fixed queries put through the shuffle
// and what they answer to the values the map-side-combiner implementation
// (the commit before the typed aggregation) produced.
func TestAggWireIdentity(t *testing.T) {
	cases := []struct {
		name          string
		keys          []string
		aggs          []Agg
		records, wire int64
		checksum      uint64
	}{
		{"sum+avg by two keys", []string{"region", "product"},
			[]Agg{{Op: Sum, Col: "units"}, {Op: Avg, Col: "price"}}, 48, 1368, 0xa0d733fc59d3d996},
		{"global count/sum/min/max", nil,
			[]Agg{{Op: Count}, {Op: Sum, Col: "price"}, {Op: Min, Col: "product"}, {Op: Max, Col: "units"}}, 4, 100, 0x96b98d098fb64355},
	}
	for _, c := range cases {
		eng := testEngine()
		res, err := mustTable(t, eng, salesSchema(), salesRows(5000, 7), 4).GroupBy(c.keys...).Agg(3, c.aggs...)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.Collect()
		if err != nil {
			t.Fatal(err)
		}
		records := eng.Reg.Counter("shuffle_records_written").Value()
		wire := eng.Reg.Counter("shuffle_wire_bytes").Value()
		if sum := rowsChecksum(rows); records != c.records || wire != c.wire || sum != c.checksum {
			t.Errorf("%s: records %d wire %d checksum %#x, pinned %d %d %#x",
				c.name, records, wire, sum, c.records, c.wire, c.checksum)
		}
	}
}

func TestHashJoinDupKeysMatchesNestedLoop(t *testing.T) {
	ls := Schema{Cols: []Col{{Name: "k", Type: Int64}, {Name: "l", Type: String}}}
	rs := Schema{Cols: []Col{{Name: "k", Type: Int64}, {Name: "r", Type: Float64}}}
	var left, right []Row
	for i := 0; i < 3; i++ {
		left = append(left, Row{int64(7), fmt.Sprintf("l%d", i)})
	}
	for i := 0; i < 4; i++ {
		right = append(right, Row{int64(7), float64(i)})
	}
	left = append(left, Row{int64(1), "left only"}, Row{int64(2), "both"})
	right = append(right, Row{int64(3), 0.5}, Row{int64(2), 2.5})
	for _, rrows := range [][]Row{right, nil} {
		var want []string
		for _, l := range left {
			for _, r := range rrows {
				if l[0] == r[0] {
					want = append(want, fmt.Sprintf("%q", []any(append(append(Row{}, l...), r...))))
				}
			}
		}
		eng := testEngine()
		j, err := mustTable(t, eng, ls, left, 3).HashJoin(mustTable(t, eng, rs, rrows, 2), "k", "k", 2)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := j.Collect()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range rows {
			got = append(got, fmt.Sprintf("%q", []any(r)))
		}
		sort.Strings(got)
		sort.Strings(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("join with %d right rows:\n got %v\nwant %v", len(rrows), got, want)
		}
	}
}

// negativeLen is a zig-zag varint string length of -1.
const negativeLen = "\x01"

// FuzzDecodeRow feeds arbitrary records to the decode-into-builders
// routine: anything but a clean decode is ErrCorrupt and leaves the builder
// as it was, with no half-appended row in any vector.
func FuzzDecodeRow(f *testing.F) {
	schema := Schema{Cols: []Col{{Name: "i", Type: Int64}, {Name: "f", Type: Float64}, {Name: "s", Type: String}, {Name: "t", Type: String}}}
	seed := batchFromRows(schema, []Row{{int64(-3), 2.5, "a\x00b", ""}}, 0, 1)
	f.Add(seed.appendRow(nil, schema, 0))
	f.Add([]byte("\x02" + "12345678" + negativeLen))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, rec []byte) {
		b := batchFromRows(schema, []Row{{int64(1), 0.5, "kept", "row"}}, 0, 1)
		err := b.decodeRow(schema, rec)
		want := 2
		if err != nil {
			if !errors.Is(err, serde.ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
			want = 1
		}
		for k, v := range b.Cols {
			if n := len(v.Ints) + len(v.Floats) + len(v.Strings); b.n != want || n != want {
				t.Fatalf("after err=%v: batch has %d rows, column %d has %d values, want %d", err, b.n, k, n, want)
			}
		}
		if err != nil {
			return
		}
		enc := b.appendRow(nil, schema, 1)
		if err := b.decodeRow(schema, enc); err != nil || !bytes.Equal(b.appendRow(nil, schema, 2), enc) {
			t.Fatalf("round trip of %q: %v", enc, err)
		}
	})
}

func FuzzAggMerge(f *testing.F) {
	schema := aggTestSchema()
	var plans []aggPlan
	for _, a := range allAggs {
		p := aggPlan{spec: a, colIdx: -1, typ: Int64}
		if a.Op != Count {
			p.colIdx = schema.Index(a.Col)
			p.typ = schema.Cols[p.colIdx].Type
		}
		plans = append(plans, p)
	}
	layout := newAggLayout(plans)
	state := func(rows []Row) []byte {
		tab, b := &aggTable{aggLayout: layout}, batchFromRows(schema, rows, 0, 1)
		for r := range rows {
			for i := range plans {
				var v *Vector
				if plans[i].colIdx >= 0 {
					v = &b.Cols[plans[i].colIdx]
				}
				tab.fold(i, tab.group(nil), v, r)
			}
		}
		return tab.appendState(nil, tab.group(nil))
	}
	f.Add(state(aggTestRows(5, 1, 1)))
	f.Add(state(nil))
	// Count, Sum(vi), Sum(vf), Avg(vi), Avg(vf), Min(vi), Min(vf), then Min(vs) with a negative length.
	f.Add([]byte("\x02\x02" + "12345678" + "12345678\x02" + "12345678\x02" + "\x00\x00\x01" + negativeLen))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		merged := func(b []byte) ([]byte, error) {
			tab := &aggTable{aggLayout: layout}
			if err := tab.mergeEncoded(tab.group(nil), b); err != nil {
				return nil, err
			}
			return tab.appendState(nil, tab.group(nil)), nil
		}
		enc, err := merged(b)
		if err != nil {
			if !errors.Is(err, serde.ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
			return
		}
		if again, err := merged(enc); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("round trip of %q: %q, %v", enc, again, err)
		}
	})
}
