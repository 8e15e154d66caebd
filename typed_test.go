package hpbdc

// Tests of the typed layer's batch representation: every operator against
// the sequential oracle and against a plain loop, shuffle bytes and output
// order pinned to what the per-element implementation produced, the
// read-only-batch contract, and an allocation guard.

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
)

// fingerprint hashes v's printed form; %v prints a float64 with the digits
// that identify its bits, so equal fingerprints mean bit-equal results.
func fingerprint(v any) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, v)
	return h.Sum64()
}

func seq(lo, n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = lo + int64(i)
	}
	return out
}

func flat[T any](parts [][]T) []T {
	var out []T
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// perPart is the plain-loop stand-in for a narrow operator.
func perPart[T, U any](in [][]T, f func(part int, xs []T) []U) [][]U {
	out := make([][]U, len(in))
	for i, xs := range in {
		out[i] = f(i, xs)
	}
	return out
}

func each[T, U any](in [][]T, f func(T) U) [][]U {
	return perPart(in, func(_ int, xs []T) []U {
		var out []U
		for _, x := range xs {
			out = append(out, f(x))
		}
		return out
	})
}

// sortedPrint prints xs element by element in sorted order: a multiset.
func sortedPrint[T any](xs []T) string {
	strs := make([]string, len(xs))
	for i, x := range xs {
		strs[i] = fmt.Sprint(x)
	}
	sort.Strings(strs)
	return strings.Join(strs, " ")
}

// checkExact runs d twice (the second run reads whatever the first cached)
// and wants CollectPartitions, ReferenceCollectPartitions, Collect and
// Count to agree with the plain-loop partitions.
func checkExact[T any](t *testing.T, name string, d *Dataset[T], want [][]T) {
	t.Helper()
	for run := 0; run < 2; run++ {
		got, err := d.CollectPartitions()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s run %d: partitions %v, plain loop %v", name, run, got, want)
		}
		if ref := ReferenceCollectPartitions(d); fmt.Sprint(ref) != fmt.Sprint(want) {
			t.Fatalf("%s run %d: reference %v, plain loop %v", name, run, ref, want)
		}
		all, err := d.Collect()
		if err != nil || fmt.Sprint(all) != fmt.Sprint(flat(want)) || fmt.Sprint(ReferenceCollect(d)) != fmt.Sprint(all) {
			t.Fatalf("%s run %d: Collect %v (%v), plain loop %v", name, run, all, err, flat(want))
		}
		if n, err := d.Count(); err != nil || n != int64(len(flat(want))) {
			t.Fatalf("%s run %d: Count %d (%v), want %d", name, run, n, err, len(flat(want)))
		}
	}
}

// checkShuffled wants the engine and the oracle to agree partition by
// partition, in order, and the elements to be the plain loop's multiset.
func checkShuffled[T any](t *testing.T, name string, d *Dataset[T], want []T) {
	t.Helper()
	for run := 0; run < 2; run++ {
		got, err := d.CollectPartitions()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ref := ReferenceCollectPartitions(d); fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("%s run %d: engine %v, reference %v", name, run, got, ref)
		}
		if sortedPrint(flat(got)) != sortedPrint(want) {
			t.Fatalf("%s run %d: engine %v, plain loop %v", name, run, got, want)
		}
		if n, err := d.Count(); err != nil || n != int64(len(want)) {
			t.Fatalf("%s run %d: Count %d (%v), want %d", name, run, n, err, len(want))
		}
	}
}

func TestOperatorsMatchReferenceAndPlainLoop(t *testing.T) {
	source := func(parts [][]int64) func(*Context) *Dataset[int64] {
		return func(c *Context) *Dataset[int64] {
			return SourceFunc(c, len(parts), func(p int) []int64 { return parts[p] })
		}
	}
	withEmpties := [][]int64{nil, seq(0, 40), {}, seq(30, 25), nil}
	allEmpty := [][]int64{nil, {}, nil}
	single := [][]int64{nil, {7}, nil}
	unionA, unionB := [][]int64{seq(0, 7), nil, seq(3, 19)}, seq(5, 23)
	unionParts := append(append([][]int64{}, unionA...), make([][]int64, 4)...)
	for i, v := range unionB {
		unionParts[3+i%4] = append(unionParts[3+i%4], v)
	}
	shapes := []struct {
		name  string
		build func(*Context) *Dataset[int64]
		parts [][]int64
	}{
		{"empty partitions", source(withEmpties), withEmpties},
		{"empty dataset", source(allEmpty), allEmpty},
		{"one element", source(single), single},
		{"union", func(c *Context) *Dataset[int64] {
			return Union(source(unionA)(c), Parallelize(c, unionB, 4))
		}, unionParts},
		{"cached middle", func(c *Context) *Dataset[int64] {
			return Map(source(withEmpties)(c), func(x int64) int64 { return x + 1 }).Cache()
		}, each(withEmpties, func(x int64) int64 { return x + 1 })},
	}
	type kv = Pair[int64, int64]
	add := func(a, b int64) int64 { return a + b }
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			c := testCtx(Config{})
			d, in := sh.build(c), sh.parts
			all := flat(in)

			checkExact(t, "identity", d, in)
			checkExact(t, "Map", Map(d, func(x int64) string { return fmt.Sprint("v", x) }),
				each(in, func(x int64) string { return fmt.Sprint("v", x) }))
			dup := func(x int64) []int64 { return seq(x, x%3) }
			checkExact(t, "FlatMap", FlatMap(d, dup), perPart(in, func(_ int, xs []int64) []int64 {
				var out []int64
				for _, x := range xs {
					out = append(out, dup(x)...)
				}
				return out
			}))
			odd := func(x int64) bool { return x%2 == 1 }
			filtered := perPart(in, func(_ int, xs []int64) []int64 {
				var out []int64
				for _, x := range xs {
					if odd(x) {
						out = append(out, x)
					}
				}
				return out
			})
			checkExact(t, "Filter", d.Filter(odd), filtered)
			// Three steps fused into one stream over d's batch.
			checkExact(t, "Map-Filter-FlatMap", FlatMap(Map(d, triple).Filter(even), split),
				perPart(in, func(_ int, xs []int64) []int64 {
					var out []int64
					for _, x := range xs {
						if y := triple(x); even(y) {
							out = append(out, split(y)...)
						}
					}
					return out
				}))
			sizes := func(part int, xs []int64) []int { return []int{part, len(xs)} }
			checkExact(t, "MapPartitions", MapPartitions(d, sizes), perPart(in, sizes))
			checkExact(t, "Sample", d.Sample(0.4, 11), perPart(in, func(part int, xs []int64) []int64 {
				gen := rng.New(11 + uint64(part)*0x9e3779b9)
				var out []int64
				for _, x := range xs {
					if gen.Float64() < 0.4 {
						out = append(out, x)
					}
				}
				return out
			}))
			checkExact(t, "Union", Union(d, d.Filter(odd)), append(append([][]int64{}, in...), filtered...))

			key := func(x int64) int64 { return x % 7 }
			keyed := KeyBy(d, key)
			pairs := each(in, func(x int64) kv { return kv{key(x), x} })
			checkExact(t, "KeyBy", keyed, pairs)
			checkExact(t, "MapValues", MapValues(keyed, func(v int64) int64 { return -v }),
				each(in, func(x int64) kv { return kv{key(x), -x} }))
			checkExact(t, "Keys", Keys(keyed), each(in, key))
			checkExact(t, "Values", Values(keyed), in)

			sum, err := d.Reduce(add)
			var wantSum int64
			for _, x := range all {
				wantSum += x
			}
			if len(all) == 0 {
				if err == nil {
					t.Fatal("Reduce of an empty dataset succeeded")
				}
			} else if err != nil || sum != wantSum {
				t.Fatalf("Reduce = %d (%v), want %d", sum, err, wantSum)
			}

			sums, groups, seen := map[int64]int64{}, map[int64][]int64{}, map[int64]bool{}
			var keys []int64
			for _, x := range all {
				if !seen[key(x)] {
					seen[key(x)] = true
					keys = append(keys, key(x))
				}
				sums[key(x)] += x
				groups[key(x)] = append(groups[key(x)], x)
			}
			var wantSums []kv
			var wantGroups []Pair[int64, []int64]
			var wantJoin []Pair[int64, Joined[int64, string]]
			for _, k := range keys {
				wantSums = append(wantSums, kv{k, sums[k]})
				wantGroups = append(wantGroups, Pair[int64, []int64]{k, groups[k]})
				for _, l := range groups[k] {
					for _, r := range groups[k] {
						wantJoin = append(wantJoin, Pair[int64, Joined[int64, string]]{k, Joined[int64, string]{l, fmt.Sprint(r)}})
					}
				}
			}
			checkShuffled(t, "ReduceByKey", ReduceByKey(keyed, Int64Codec, Int64Codec, 3, add), wantSums)
			// Engine and oracle deliver a group's values in the same order,
			// which is the plain loop's: map partitions in order.
			checkShuffled(t, "GroupByKey", GroupByKey(keyed, Int64Codec, Int64Codec, 3), wantGroups)
			counts, err := CountByKey(keyed, Int64Codec, 2)
			if err != nil || len(counts) != len(keys) {
				t.Fatalf("CountByKey = %v (%v)", counts, err)
			}
			for _, k := range keys {
				if counts[k] != int64(len(groups[k])) {
					t.Fatalf("CountByKey[%d] = %d, want %d", k, counts[k], len(groups[k]))
				}
			}
			right := MapValues(keyed, func(v int64) string { return fmt.Sprint(v) })
			checkShuffled(t, "Join", Join(keyed, right, Int64Codec, Int64Codec, StringCodec, 3), wantJoin)
			bj, err := BroadcastJoin(keyed, right, 1<<10)
			if err != nil {
				t.Fatal(err)
			}
			checkShuffled(t, "BroadcastJoin", bj, wantJoin)
			checkShuffled(t, "Distinct", Distinct(Keys(keyed), Int64Codec, 3), keys)
			checkShuffled(t, "Repartition", Repartition(d, Int64Codec, 4), all)

			sortable := Map(d, func(x int64) Pair[uint64, int64] { return Pair[uint64, int64]{uint64(x % 5), x} })
			sorted, err := SortByKey(sortable, Uint64SortableCodec, Int64Codec, 3, 4)
			if err != nil {
				t.Fatal(err)
			}
			wantSorted := flat(each(in, func(x int64) Pair[uint64, int64] { return Pair[uint64, int64]{uint64(x % 5), x} }))
			sort.SliceStable(wantSorted, func(i, j int) bool { return wantSorted[i].Key < wantSorted[j].Key })
			checkShuffled(t, "SortByKey", sorted, wantSorted)
			if got, err := sorted.Collect(); err != nil || fmt.Sprint(got) != fmt.Sprint(wantSorted) {
				t.Fatalf("SortByKey order %v (%v), stable sort %v", got, err, wantSorted)
			}

			lines := Map(d, func(x int64) string { return fmt.Sprint("line ", x) })
			if err := SaveAsTextFile(lines, "/typed/"+sh.name); err != nil {
				t.Fatal(err)
			}
			back, err := TextFile(c, "/typed/"+sh.name).Collect()
			if err != nil || sortedPrint(back) != sortedPrint(flat(each(in, func(x int64) string { return fmt.Sprint("line ", x) }))) {
				t.Fatalf("text round trip = %v (%v)", back, err)
			}

			// A checkpointed dataset reads back, batch by batch, what it held.
			ck := Map(d, func(x int64) int64 { return x * x })
			if err := ck.Checkpoint("/typed-ckpt/"+sh.name, Int64Codec); err != nil {
				t.Fatal(err)
			}
			checkExact(t, "Checkpoint", ck, each(in, func(x int64) int64 { return x * x }))
		})
	}
}

// shuffleCounts reads what the context's map stages wrote.
type shuffleCounts struct{ records, raw, wire int64 }

func shuffleCountsOf(c *Context) shuffleCounts {
	reg := c.Metrics()
	return shuffleCounts{
		records: reg.Counter("shuffle_records_written").Value(),
		raw:     reg.Counter("shuffle_raw_bytes").Value(),
		wire:    reg.Counter("shuffle_wire_bytes").Value(),
	}
}

// TestReduceByKeyWireIdentity pins ReduceByKey's shuffle counters and its
// ordered result to the values the byte-level combiner implementation (PR
// 13's commit) produced: the typed fold writes the same blocks.
func TestReduceByKeyWireIdentity(t *testing.T) {
	t.Run("int64 count", func(t *testing.T) {
		c := New(Config{Racks: 2, NodesPerRack: 4, Seed: 42})
		src := SourceFunc(c, 8, func(part int) []int64 {
			gen := rng.New(uint64(part) + 1)
			out := make([]int64, 25000)
			for i := range out {
				out[i] = gen.Int63n(1 << 40)
			}
			return out
		})
		pairs := Map(src, func(tok int64) Pair[int64, int64] { return Pair[int64, int64]{tok % 5000, 1} })
		got, err := ReduceByKey(pairs, Int64Codec, Int64Codec, 4, func(a, b int64) int64 { return a + b }).Collect()
		if err != nil {
			t.Fatal(err)
		}
		want := shuffleCounts{records: 39737, raw: 198177, wire: 198177}
		if counts := shuffleCountsOf(c); counts != want {
			t.Fatalf("shuffle counters %+v, pinned %+v", counts, want)
		}
		if fp := fingerprint(got); len(got) != 5000 || fp != 0xcc86573645793bf0 {
			t.Fatalf("result: %d pairs, fingerprint %#x", len(got), fp)
		}
	})
	t.Run("string float sum", func(t *testing.T) {
		c := New(Config{Racks: 2, NodesPerRack: 4, Seed: 42, ShuffleCodec: "lz"})
		src := SourceFunc(c, 6, func(part int) []Pair[string, float64] {
			gen := rng.New(uint64(part) + 100)
			out := make([]Pair[string, float64], 20000)
			for i := range out {
				out[i] = Pair[string, float64]{fmt.Sprintf("word-%04d", gen.Intn(3000)), gen.Float64()*1e3 - 500}
			}
			return out
		})
		got, err := ReduceByKey(src, StringCodec, Float64Codec, 5, func(a, b float64) float64 { return a + b }).Collect()
		if err != nil {
			t.Fatal(err)
		}
		want := shuffleCounts{records: 17974, raw: 341506, wire: 238101}
		if counts := shuffleCountsOf(c); counts != want {
			t.Fatalf("shuffle counters %+v, pinned %+v", counts, want)
		}
		if fp := fingerprint(got); len(got) != 3000 || fp != 0x195850436a1db1e7 {
			t.Fatalf("result: %d pairs, fingerprint %#x", len(got), fp)
		}
	})
	t.Run("past the spill threshold", func(t *testing.T) {
		// One map partition sees 300 000 distinct 16-byte keys twice over:
		// more than the 4 MiB a shuffle writer buffers. The byte-level
		// combiner flushed at each spill and wrote a key again when it
		// came back; the fold writes every key once.
		const distinct, parentRecords = 300000, 600000
		c := New(Config{Racks: 1, NodesPerRack: 2, Seed: 42})
		src := SourceFunc(c, 1, func(int) []Pair[string, int64] {
			out := make([]Pair[string, int64], 0, 2*distinct)
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < distinct; i++ {
					out = append(out, Pair[string, int64]{fmt.Sprintf("key-%012d", i), int64(i)})
				}
			}
			return out
		})
		got, err := ReduceByKey(src, StringCodec, Int64Codec, 3, func(a, b int64) int64 { return a + b }).Collect()
		if err != nil {
			t.Fatal(err)
		}
		if n := shuffleCountsOf(c).records; n < distinct || n > parentRecords {
			t.Fatalf("%d records written, want %d..%d", n, distinct, parentRecords)
		}
		if len(got) != distinct {
			t.Fatalf("%d keys, want %d", len(got), distinct)
		}
		for _, p := range got {
			var i int64
			if _, err := fmt.Sscanf(p.Key, "key-%d", &i); err != nil || p.Value != 2*i {
				t.Fatalf("%q = %d (%v)", p.Key, p.Value, err)
			}
		}
	})
}

// TestShuffleOutputOrderPinned pins every shuffle operator's partition
// contents, in order, to what the per-element implementation produced.
func TestShuffleOutputOrderPinned(t *testing.T) {
	c := New(Config{Racks: 2, NodesPerRack: 4, Seed: 42})
	type kv = Pair[string, int64]
	src := SourceFunc(c, 5, func(part int) []kv {
		gen := rng.New(uint64(part) + 7)
		out := make([]kv, 400+100*part)
		for i := range out {
			out[i] = kv{fmt.Sprintf("k%03d", gen.Intn(150)), gen.Int63n(1000)}
		}
		return out
	})
	sorted, err := SortByKey(src, StringCodec, Int64Codec, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	other := MapValues(src.Filter(func(p kv) bool { return p.Value%9 == 0 }), func(v int64) string { return fmt.Sprint(v) })
	for _, tc := range []struct {
		name string
		run  func() (any, error)
		want uint64
	}{
		{"SortByKey", func() (any, error) { return sorted.CollectPartitions() }, 0x61f047ea54b04d06},
		{"GroupByKey", func() (any, error) { return GroupByKey(src, StringCodec, Int64Codec, 3).CollectPartitions() }, 0xdf56eaeb537c589b},
		{"Join", func() (any, error) {
			return Join(src, other, StringCodec, Int64Codec, StringCodec, 3).CollectPartitions()
		}, 0x98256e0df06019ce},
		{"Distinct", func() (any, error) { return Distinct(Keys(src), StringCodec, 3).CollectPartitions() }, 0xe2dc6f955b04befa},
		{"Repartition", func() (any, error) { return Repartition(Keys(src), StringCodec, 6).CollectPartitions() }, 0x5bb68b05747d841b},
	} {
		got, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if fp := fingerprint(got); fp != tc.want {
			t.Errorf("%s: fingerprint %#x, pinned %#x", tc.name, fp, tc.want)
		}
	}
}

// TestCollectDoesNotAliasSourceOrCache: what an action returns is the
// caller's to modify; the source's slices and cached partitions are not
// reachable through it.
func TestCollectDoesNotAliasSourceOrCache(t *testing.T) {
	data := [][]int64{seq(0, 50), nil, seq(50, 30)}
	want := fmt.Sprint(flat(data))
	scribble := func(xs []int64) {
		for i := range xs {
			xs[i] = -1
		}
	}
	keepAll := func(int64) bool { return true }
	for _, tc := range []struct {
		name  string
		build func(*Dataset[int64]) *Dataset[int64]
	}{
		{"source", func(d *Dataset[int64]) *Dataset[int64] { return d }},
		{"cache", func(d *Dataset[int64]) *Dataset[int64] { return d.Cache() }},
		{"Filter over cache", func(d *Dataset[int64]) *Dataset[int64] { return d.Cache().Filter(keepAll) }},
		{"Sample over cache", func(d *Dataset[int64]) *Dataset[int64] { return d.Cache().Sample(0.999999, 1).Filter(keepAll) }},
		{"FlatMap over cache", func(d *Dataset[int64]) *Dataset[int64] {
			return FlatMap(d.Cache(), func(x int64) []int64 { return []int64{x} })
		}},
		{"MapPartitions identity over cache", func(d *Dataset[int64]) *Dataset[int64] {
			return MapPartitions(d.Cache(), func(_ int, xs []int64) []int64 { return xs })
		}},
	} {
		c := testCtx(Config{})
		d := tc.build(SourceFunc(c, len(data), func(p int) []int64 { return data[p] }))
		for run := 0; run < 2; run++ {
			all, err := d.Collect()
			if err != nil || fmt.Sprint(all) != want {
				t.Fatalf("%s run %d: Collect %v (%v)", tc.name, run, all, err)
			}
			scribble(all)
			parts, err := d.CollectPartitions()
			if err != nil || fmt.Sprint(flat(parts)) != want {
				t.Fatalf("%s run %d: CollectPartitions %v (%v)", tc.name, run, parts, err)
			}
			scribble(flat(parts))
			for _, p := range parts {
				scribble(p)
			}
			scribble(ReferenceCollect(d))
			for _, p := range ReferenceCollectPartitions(d) {
				scribble(p)
			}
		}
		if fmt.Sprint(flat(data)) != want {
			t.Fatalf("%s: the source's own slices were modified", tc.name)
		}
	}

	// The same under task retries and a recomputed map stage: every
	// attempt reads the cached batches and finds them as they were.
	c := testCtx(Config{Racks: 2, NodesPerRack: 4, TaskFailProb: 0.3, Seed: 5})
	cached := SourceFunc(c, len(data), func(p int) []int64 { return data[p] }).Cache()
	sums := ReduceByKey(KeyBy(cached, func(x int64) int64 { return x % 4 }), Int64Codec, Int64Codec, 3,
		func(a, b int64) int64 { return a + b })
	var first string
	for run := 0; run < 3; run++ {
		got, err := sums.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = sortedPrint(got)
		} else if sortedPrint(got) != first {
			t.Fatalf("run %d: %v, first run %v", run, sortedPrint(got), first)
		}
		for i := range got {
			got[i].Value = -1
		}
		_ = c.Cluster().Kill(topology.NodeID(run)) // lose map outputs: the next run recomputes them
	}
	if first != "{0 760} {1 780} {2 800} {3 820}" {
		t.Fatalf("sums = %v", first)
	}
}

// TestCountWithEmptyPartitions: Count sums batch lengths, including
// partitions a source or a filter left without a batch's worth of rows.
func TestCountWithEmptyPartitions(t *testing.T) {
	c := testCtx(Config{})
	d := SourceFunc(c, 6, func(part int) []int {
		if part%2 == 0 {
			return nil
		}
		return make([]int, 10*part)
	})
	if n, err := d.Count(); err != nil || n != 90 {
		t.Fatalf("Count = %d (%v), want 90", n, err)
	}
	if n, err := d.Filter(func(int) bool { return false }).Count(); err != nil || n != 0 {
		t.Fatalf("Count of nothing = %d (%v)", n, err)
	}
	if n, err := Repartition(d, IntCodec, 4).Count(); err != nil || n != 90 {
		t.Fatalf("Count after a shuffle = %d (%v), want 90", n, err)
	}
}

// TestNoPerElementAllocations keeps boxing from creeping back: a job's
// allocations stay a small fraction of its element count.
func TestNoPerElementAllocations(t *testing.T) {
	const elems, keys, parts = 100000, 1000, 8
	data := make([][]int64, parts)
	for p := range data {
		data[p] = seq(int64(p*elems/parts), elems/parts)
	}
	c := New(Config{Racks: 2, NodesPerRack: 4})
	src := SourceFunc(c, parts, func(p int) []int64 { return data[p] })
	pairs := Map(src, func(x int64) Pair[int64, int64] { return Pair[int64, int64]{x % keys, 1} })
	for _, tc := range []struct {
		name string
		job  func() error
		max  float64 // allocations per element
	}{
		{"SourceFunc-Map-ReduceByKey-Collect", func() error {
			_, err := ReduceByKey(pairs, Int64Codec, Int64Codec, 4, func(a, b int64) int64 { return a + b }).Collect()
			return err
		}, 0.5},
		{"SourceFunc-Map-Count", func() error {
			_, err := Map(src, func(x int64) int64 { return x }).Count()
			return err
		}, 0.05},
	} {
		var err error
		perElem := testing.AllocsPerRun(3, func() {
			if e := tc.job(); e != nil {
				err = e
			}
		}) / elems
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.4f allocations per element", tc.name, perElem)
		if perElem > tc.max {
			t.Errorf("%s: %.3f allocations per element, want <= %.2f", tc.name, perElem, tc.max)
		}
	}
}
