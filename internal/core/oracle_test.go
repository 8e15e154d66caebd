package core

import (
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/shuffle"
)

// refCountDep builds a word-count-style shuffle dep over int rows:
// key = row mod buckets, value = 1, post = "key:count" strings.
func refCountDep(parts, buckets int, sorted bool) ShuffleDep {
	return ShuffleDep{
		Partitions: parts,
		Sorted:     sorted,
		Emit:       perRow(func(r Row) []byte { return []byte(fmt.Sprintf("k%02d", r.(int)%buckets)) }, func(r Row) []byte { return []byte("1") }),
		Post: func(ctx *TaskContext, recs shuffle.Records) []Row {
			counts := map[string]int{}
			var order []string
			for _, rec := range materialize(recs) {
				k := string(rec.Key)
				if counts[k] == 0 {
					order = append(order, k)
				}
				counts[k]++
			}
			sort.Strings(order)
			var out []Row
			for _, k := range order {
				out = append(out, k+":"+strconv.Itoa(counts[k]))
			}
			return out
		},
	}
}

func flatten(parts [][]Row) []string {
	var out []string
	for _, rows := range parts {
		for _, r := range rows {
			out = append(out, r.(string))
		}
	}
	sort.Strings(out)
	return out
}

func TestReferenceSource(t *testing.T) {
	e := testEngine(t, 4, Config{})
	p := sliceSource(e, ints(40), 4)
	ref := Reference(p)
	if len(ref) != 4 {
		t.Fatalf("partitions = %d", len(ref))
	}
	var got []int
	for _, rows := range ref {
		for _, r := range rows {
			got = append(got, r.(int))
		}
	}
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestReferenceNarrowAndUnion(t *testing.T) {
	e := testEngine(t, 4, Config{})
	a := e.NewNarrow(sliceSource(e, ints(20), 2), func(ctx *TaskContext, rows []Row) []Row {
		out := make([]Row, len(rows))
		for i, r := range rows {
			out[i] = r.(int) * 10
		}
		return out
	})
	b := sliceSource(e, ints(5), 3)
	u := e.NewUnion(a, b)
	ref := Reference(u)
	if len(ref) != 5 {
		t.Fatalf("union partitions = %d", len(ref))
	}
	// The engine must agree partition for partition (all-narrow lineage
	// preserves order).
	got, err := e.Run(u)
	if err != nil {
		t.Fatal(err)
	}
	for p := range ref {
		if len(got[p]) != len(ref[p]) {
			t.Fatalf("partition %d: %d vs %d rows", p, len(got[p]), len(ref[p]))
		}
		for i := range ref[p] {
			if got[p][i] != ref[p][i] {
				t.Fatalf("partition %d row %d: %v vs %v", p, i, got[p][i], ref[p][i])
			}
		}
	}
}

func TestReferenceShuffledMatchesEngine(t *testing.T) {
	for _, sorted := range []bool{false, true} {
		e := testEngine(t, 4, Config{})
		src := sliceSource(e, ints(200), 6)
		p := e.NewShuffled(src, refCountDep(4, 13, sorted))
		ref := Reference(p)
		got, err := e.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		// Post sorts keys within each partition, so the comparison is
		// exact per partition regardless of shuffle record order.
		for part := range ref {
			rs, gs := fmt.Sprint(ref[part]), fmt.Sprint(got[part])
			if rs != gs {
				t.Fatalf("sorted=%v partition %d: engine %s vs reference %s", sorted, part, gs, rs)
			}
		}
	}
}

func TestReferenceCustomPartitionerAndMemo(t *testing.T) {
	e := testEngine(t, 4, Config{})
	// The source fn runs sequentially under Reference but concurrently
	// once the engine executes the plan, so the call count is atomic.
	var calls atomic.Int64
	src := e.NewSource(3, func(ctx *TaskContext, part int) []Row {
		calls.Add(1)
		var rows []Row
		for i := 0; i < 10; i++ {
			rows = append(rows, part*10+i)
		}
		return rows
	}, nil)
	dep := refCountDep(5, 11, true)
	dep.Partitioner = func(key []byte) int { return int(key[len(key)-1]-'0') % 5 }
	p := e.NewShuffled(src, dep)
	ref := Reference(p)
	if n := calls.Load(); n != 3 {
		t.Fatalf("map side ran %d source evaluations, want 3 (memoized per shuffle, not per reduce partition)", n)
	}
	got, err := e.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ref) != fmt.Sprint(got) {
		t.Fatalf("engine %v vs reference %v", got, ref)
	}
}
