package table

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/group"
)

// keyEdges holds, per key type, values whose byte encodings tell apart
// what a typed == might not: the integer extremes, strings holding 0x00 or
// sharing a prefix, the two zeros and two NaN payloads. The last value of
// each is never on a join's build side.
var keyEdges = map[Type][]any{
	Int64:   {int64(math.MinInt64), int64(math.MaxInt64), int64(0), int64(-1), int64(7), int64(42)},
	String:  {"", "\x00", "\x00\x00", "a", "a\x00", "a\x00b", "ab", "abc", "ab\x00"},
	Float64: {math.Copysign(0, -1), 0.0, math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0x7FF8000000000002), math.Inf(1), math.Inf(-1), 1.5},
}

// keyString is a value's byte encoding for equality, as a map key.
func keyString(typ Type, x any) string {
	v := newVector(typ, 1)
	v.push(typ, x)
	return string(appendEqualityKey(nil, typ, &v, 0))
}

// rowString spells a row out with each float as its bits, so rows that
// differ only in a zero's sign or a NaN's payload stay apart.
func rowString(r Row) string {
	s := ""
	for _, x := range r {
		if f, ok := x.(float64); ok {
			x = math.Float64bits(f)
		}
		s += fmt.Sprintf("%q|", fmt.Sprint(x))
	}
	return s
}

// TestColumnKeysMatchByteKeys: a key column numbered by its own type
// (colKeys) groups and joins exactly as its byte encodings do. colKeys
// numbers a stream of edge values as a ByteKeyTable numbers their
// encodings and encodes them as appendSortableKey does; BroadcastJoin,
// which probes colKeys, equals HashJoin, which shuffles byte keys, row for
// row; and a one-column GroupBy, which folds through colKeys, equals a Go
// map keyed by the encodings.
func TestColumnKeysMatchByteKeys(t *testing.T) {
	eng := testEngine()
	for typ, edges := range keyEdges {
		var rows, build []Row // every edge value three times, spread over the partitions
		for i := range 3 * len(edges) {
			e := (i * 5) % len(edges)
			rows = append(rows, Row{edges[e], int64(i)})
			if e < len(edges)-1 {
				build = append(build, rows[i])
			}
		}
		schema := Schema{Cols: []Col{{Name: "k", Type: typ}, {Name: "v", Type: Int64}}}

		keys, enc := colKeys{typ: typ}, group.ByteKeyTable{}
		col := newVector(typ, len(rows))
		for i, r := range rows {
			col.push(typ, r[0])
			got, gotAdded := keys.id(&col, i)
			want, wantAdded := enc.ID(appendEqualityKey(nil, typ, &col, i))
			if got != want || gotAdded != wantAdded {
				t.Fatalf("%v: value %d (%q) numbered %d, %t; bytes %d, %t", typ, i, keyString(typ, r[0]), got, gotAdded, want, wantAdded)
			}
			if found, ok := keys.find(&col, i); !ok || found != got {
				t.Fatalf("%v: find(%q) = %d, %t; want %d", typ, keyString(typ, r[0]), found, ok, got)
			}
		}
		n, sortable := keys.sortable()
		if n != len(edges) {
			t.Fatalf("%v: %d keys, want %d", typ, n, len(edges))
		}
		for g := range int32(n) {
			first := slices.IndexFunc(rows, func(r Row) bool { return keyString(typ, r[0]) == string(enc.Key(g)) })
			if want := appendSortableKey(nil, typ, &col, first, false); string(sortable(g)) != string(want) {
				t.Fatalf("%v: key %d encodes as %x, want %x", typ, g, sortable(g), want)
			}
		}

		left := mustTable(t, eng, schema, rows, 3)
		right := mustTable(t, eng, schema, build, 2)
		hash, err := left.HashJoin(right, "k", "k", 3)
		if err != nil {
			t.Fatal(err)
		}
		bcast, err := left.BroadcastJoin(right, "k", "k")
		if err != nil {
			t.Fatal(err)
		}
		var joined [2][]string
		for s, j := range []*Table{hash, bcast} {
			out, err := j.Collect()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range out {
				joined[s] = append(joined[s], rowString(r))
			}
			slices.Sort(joined[s])
		}
		if want := 9 * (len(edges) - 1); len(joined[0]) != want || !slices.Equal(joined[0], joined[1]) {
			t.Fatalf("%v: HashJoin %d rows, BroadcastJoin %d rows, want %d alike", typ, len(joined[0]), len(joined[1]), want)
		}

		type state struct{ count, sum int64 }
		oracle := map[string]state{}
		for _, r := range rows {
			s := oracle[keyString(typ, r[0])]
			oracle[keyString(typ, r[0])] = state{s.count + 1, s.sum + r[1].(int64)}
		}
		agg, err := left.GroupBy("k").Agg(2, Agg{Op: Count}, Agg{Op: Sum, Col: "v"})
		if err != nil {
			t.Fatal(err)
		}
		out, err := agg.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(oracle) {
			t.Fatalf("%v: %d groups, want %d", typ, len(out), len(oracle))
		}
		for _, r := range out {
			if got, want := (state{r[1].(int64), r[2].(int64)}), oracle[keyString(typ, r[0])]; got != want {
				t.Fatalf("%v: group %q has count, sum %v; want %v", typ, keyString(typ, r[0]), got, want)
			}
		}
	}
}
