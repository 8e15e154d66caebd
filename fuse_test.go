package hpbdc

// Tests of fused element-wise steps: Map, Filter and FlatMap hand their
// consumer a stream, so every user function runs once per element per
// task computation whoever reads it, and a cached or checkpointed step
// still stores the elements, not the chain. The oracle and the plain loop
// check fused chains in TestOperatorsMatchReferenceAndPlainLoop.

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// chainCalls counts the calls of a chain's four user functions.
type chainCalls struct{ triple, even, split, key atomic.Int64 }

func (c *chainCalls) String() string {
	return fmt.Sprintf("triple %d, even %d, split %d, key %d", c.triple.Load(), c.even.Load(), c.split.Load(), c.key.Load())
}

// The chain's user functions, uncounted: what the plain loop applies.
func triple(x int64) int64  { return 3 * x }
func even(x int64) bool     { return x%2 == 0 }
func split(x int64) []int64 { return seq(x, 1+x%4) }
func keyOf(x int64) Pair[int64, int64] {
	return Pair[int64, int64]{Key: x % 13, Value: x}
}

// fusedParts is the chain's input: uneven partitions, one of them empty.
var fusedParts = [][]int64{seq(0, 300), nil, seq(300, 41), seq(500, 160)}

// countedChain is Map → Filter → FlatMap → Map over fusedParts with every
// user function counted in calls.
func countedChain(c *Context, calls *chainCalls) *Dataset[Pair[int64, int64]] {
	src := SourceFunc(c, len(fusedParts), func(p int) []int64 { return fusedParts[p] })
	tripled := Map(src, func(x int64) int64 { calls.triple.Add(1); return triple(x) })
	evens := tripled.Filter(func(x int64) bool { calls.even.Add(1); return even(x) })
	split := FlatMap(evens, func(x int64) []int64 { calls.split.Add(1); return split(x) })
	return Map(split, func(x int64) Pair[int64, int64] { calls.key.Add(1); return keyOf(x) })
}

// plainChain is the chain as a loop over every partition, and how many
// elements reach each of its functions.
func plainChain() (out [][]Pair[int64, int64], wantTriple, wantEven, wantSplit, wantKey int64) {
	out = make([][]Pair[int64, int64], len(fusedParts))
	for p, xs := range fusedParts {
		for _, x := range xs {
			wantTriple++
			wantEven++
			if y := triple(x); even(y) {
				wantSplit++
				for _, z := range split(y) {
					wantKey++
					out[p] = append(out[p], keyOf(z))
				}
			}
		}
	}
	return out, wantTriple, wantEven, wantSplit, wantKey
}

func checkCalls(t *testing.T, name string, calls *chainCalls, jobs int64) {
	t.Helper()
	_, tr, ev, sp, k := plainChain()
	want := &chainCalls{}
	want.triple.Store(jobs * tr)
	want.even.Store(jobs * ev)
	want.split.Store(jobs * sp)
	want.key.Store(jobs * k)
	if calls.String() != want.String() {
		t.Errorf("%s: calls %v, want %v (%d job(s))", name, calls, want, jobs)
	}
}

// TestUserFunctionsRunOncePerElement: each fold and each batch consumer
// reads the fused chain once per task computation, so every user function
// of the chain runs once per element that reaches it in each job.
func TestUserFunctionsRunOncePerElement(t *testing.T) {
	type kv = Pair[int64, int64]
	add := func(a, b int64) int64 { return a + b }
	for _, tc := range []struct {
		name string
		jobs int64 // jobs that compute the chain's partitions
		run  func(d *Dataset[kv]) error
	}{
		{"Collect", 1, func(d *Dataset[kv]) error { _, err := d.Collect(); return err }},
		{"CollectPartitions", 1, func(d *Dataset[kv]) error { _, err := d.CollectPartitions(); return err }},
		{"Count", 1, func(d *Dataset[kv]) error { _, err := d.Count(); return err }},
		{"Reduce", 1, func(d *Dataset[kv]) error { _, err := Values(d).Reduce(add); return err }},
		{"ReduceByKey", 1, func(d *Dataset[kv]) error {
			_, err := ReduceByKey(d, Int64Codec, Int64Codec, 3, add).Collect()
			return err
		}},
		{"CountByKey", 1, func(d *Dataset[kv]) error { _, err := CountByKey(d, Int64Codec, 2); return err }},
		{"Distinct", 1, func(d *Dataset[kv]) error { _, err := Distinct(Keys(d), Int64Codec, 3).Collect(); return err }},
		{"ReferenceCollect", 1, func(d *Dataset[kv]) error { ReferenceCollect(d); return nil }},
		{"ReferenceCollectPartitions", 1, func(d *Dataset[kv]) error { ReferenceCollectPartitions(d); return nil }},
		{"MapPartitions", 1, func(d *Dataset[kv]) error {
			_, err := MapPartitions(d, func(_ int, xs []kv) []kv { return xs }).Count()
			return err
		}},
		{"Sample", 1, func(d *Dataset[kv]) error { _, err := d.Sample(0.5, 3).Count(); return err }},
		{"GroupByKey", 1, func(d *Dataset[kv]) error {
			_, err := GroupByKey(d, Int64Codec, Int64Codec, 3).Collect()
			return err
		}},
		{"Join", 1, func(d *Dataset[kv]) error {
			other := Parallelize(d.Context(), []kv{{1, 1}, {2, 2}}, 2)
			_, err := Join(d, other, Int64Codec, Int64Codec, Int64Codec, 3).Count()
			return err
		}},
		{"BroadcastJoin", 1, func(d *Dataset[kv]) error {
			joined, err := BroadcastJoin(d, Parallelize(d.Context(), []kv{{1, 1}, {2, 2}}, 2), 64)
			if err != nil {
				return err
			}
			_, err = joined.Count()
			return err
		}},
		{"Repartition", 1, func(d *Dataset[kv]) error { _, err := Repartition(Values(d), Int64Codec, 3).Count(); return err }},
		{"SortByKey", 2, func(d *Dataset[kv]) error { // a sampling job, then the sort
			keyed := Map(d, func(p kv) Pair[uint64, int64] { return Pair[uint64, int64]{uint64(p.Key), p.Value} })
			sorted, err := SortByKey(keyed, Uint64SortableCodec, Int64Codec, 3, 8)
			if err != nil {
				return err
			}
			_, err = sorted.Count()
			return err
		}},
		{"SaveAsTextFile", 1, func(d *Dataset[kv]) error {
			return SaveAsTextFile(Map(d, func(p kv) string { return fmt.Sprint(p) }), "/once/text")
		}},
		{"Checkpoint then Count", 1, func(d *Dataset[kv]) error {
			values := Values(d)
			if err := values.Checkpoint("/once/ckpt", Int64Codec); err != nil {
				return err
			}
			_, err := values.Count()
			return err
		}},
		{"Cache then Count twice", 1, func(d *Dataset[kv]) error {
			d.Cache()
			for range 2 {
				if _, err := d.Count(); err != nil {
					return err
				}
			}
			return nil
		}},
		{"Union cached then Collect twice", 1, func(d *Dataset[kv]) error {
			u := Union(d, Parallelize(d.Context(), []kv{{1, 1}}, 1)).Cache()
			for range 2 {
				if _, err := u.Collect(); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		calls := &chainCalls{}
		d := countedChain(testCtx(Config{}), calls)
		if err := tc.run(d); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkCalls(t, tc.name, calls, tc.jobs)
	}
}

// TestCacheAndCheckpointAfterConsumerDerived: a consumer derived before
// Cache or Checkpoint is called on the step it reads still gets the step's
// stored elements in later jobs, so the chain runs in the first job only.
func TestCacheAndCheckpointAfterConsumerDerived(t *testing.T) {
	type kv = Pair[int64, int64]
	add := func(a, b int64) int64 { return a + b }
	plain, _, _, _, _ := plainChain()
	sums := map[int64]int64{}
	for _, p := range flat(plain) {
		sums[p.Key] += p.Value
	}
	want := fmt.Sprint(sums)
	for _, store := range []struct {
		name string
		mark func(d *Dataset[kv]) error
	}{
		{"Cache", func(d *Dataset[kv]) error { d.Cache(); return nil }},
		{"Checkpoint", func(d *Dataset[kv]) error {
			return d.Checkpoint("/derived/ckpt", Codec[kv]{
				Encode: func(p kv) []byte { return fmt.Appendf(nil, "%d %d", p.Key, p.Value) },
				Decode: func(b []byte) (p kv) {
					if _, err := fmt.Sscan(string(b), &p.Key, &p.Value); err != nil {
						panic(err)
					}
					return p
				},
			})
		}},
	} {
		calls := &chainCalls{}
		d := countedChain(testCtx(Config{}), calls)
		// Three folds derived first; each reduce runs its own map stage.
		folds := []*Dataset[kv]{
			ReduceByKey(d, Int64Codec, Int64Codec, 3, add),
			ReduceByKey(d, Int64Codec, Int64Codec, 2, add),
			ReduceByKey(Map(d, func(p kv) kv { return p }), Int64Codec, Int64Codec, 1, add),
		}
		counted := Keys(d)
		if err := store.mark(d); err != nil {
			t.Fatalf("%s: %v", store.name, err)
		}
		for i, fold := range folds {
			got, err := fold.Collect()
			if err != nil {
				t.Fatalf("%s fold %d: %v", store.name, i, err)
			}
			m := map[int64]int64{}
			for _, p := range got {
				m[p.Key] = p.Value
			}
			if fmt.Sprint(m) != want {
				t.Fatalf("%s fold %d: sums %v, want %v", store.name, i, m, want)
			}
			if n, err := counted.Count(); err != nil || n != int64(len(flat(plain))) {
				t.Fatalf("%s fold %d: Count %d (%v), want %d", store.name, i, n, err, len(flat(plain)))
			}
			if parts, err := d.CollectPartitions(); err != nil || fmt.Sprint(parts) != fmt.Sprint(plain) {
				t.Fatalf("%s fold %d: partitions %v (%v), want %v", store.name, i, parts, err, plain)
			}
		}
		// The first job filled the cache or wrote the checkpoint; every job
		// after it read the stored elements.
		checkCalls(t, store.name, calls, 1)
	}
}

// TestStepPanicFailsItsTask: a result stage's last steps run in its tasks,
// so a user function's panic there fails its task and the action returns
// the job's error, as when each step built its batch; no panic reaches the
// caller.
func TestStepPanicFailsItsTask(t *testing.T) {
	actions := []struct {
		name string
		run  func(d *Dataset[int64]) error
	}{
		{"Collect", func(d *Dataset[int64]) error { _, err := d.Collect(); return err }},
		{"CollectPartitions", func(d *Dataset[int64]) error { _, err := d.CollectPartitions(); return err }},
		{"Count", func(d *Dataset[int64]) error { _, err := d.Count(); return err }},
		{"Checkpoint", func(d *Dataset[int64]) error { return d.Checkpoint("/panic/ckpt", Int64Codec) }},
	}
	for _, a := range actions {
		c := testCtx(Config{})
		src := SourceFunc(c, 3, func(p int) []int64 { return seq(int64(10*p), 10) })
		d := Map(src, func(x int64) int64 {
			if x == 15 {
				panic("bad element")
			}
			return x
		}).Filter(func(int64) bool { return true })
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: panicked on the caller: %v", a.name, p)
				}
			}()
			if err := a.run(d); err == nil || !strings.Contains(err.Error(), "bad element") {
				t.Errorf("%s of a panicking Map: error %v, want the task's panic", a.name, err)
			}
		}()
	}
}
