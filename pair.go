package hpbdc

import (
	"slices"

	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/shuffle"
)

// Pair is a keyed element — the currency of shuffle operations.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// Joined is one inner-join match.
type Joined[V, W any] struct {
	Left  V
	Right W
}

// KeyBy keys each element by f.
func KeyBy[T any, K comparable](d *Dataset[T], f func(T) K) *Dataset[Pair[K, T]] {
	return Map(d, func(t T) Pair[K, T] { return Pair[K, T]{Key: f(t), Value: t} })
}

// MapValues transforms values, keeping keys (and partitioning) intact.
func MapValues[K comparable, V, W any](d *Dataset[Pair[K, V]], f func(V) W) *Dataset[Pair[K, W]] {
	return Map(d, func(p Pair[K, V]) Pair[K, W] {
		return Pair[K, W]{Key: p.Key, Value: f(p.Value)}
	})
}

// Keys projects the keys.
func Keys[K comparable, V any](d *Dataset[Pair[K, V]]) *Dataset[K] {
	return Map(d, func(p Pair[K, V]) K { return p.Key })
}

// Values projects the values.
func Values[K comparable, V any](d *Dataset[Pair[K, V]]) *Dataset[V] {
	return Map(d, func(p Pair[K, V]) V { return p.Value })
}

// shuffleOf adds a shuffle boundary over parent. emit writes the records of
// one parent row — a partition's whole batch or stream — and post turns
// one reduce partition's records into its batch.
func shuffleOf[U any](c *Context, parent *core.Plan, dep core.ShuffleDep, emit func(row core.Row, w shuffle.Writer) error, post func(recs shuffle.Records) []U) *Dataset[U] {
	dep.Emit = emit
	dep.Post = func(_ *core.TaskContext, recs shuffle.Records) []core.Row { return []core.Row{post(recs)} }
	return &Dataset[U]{ctx: c, plan: c.engine.NewShuffled(parent, dep)}
}

// writePairs writes every pair as one record, in batch order. Both codecs
// only read the batch, which no one writes until the map task has closed
// w, so they encode a record alike each time WriteRecords asks.
func writePairs[K comparable, V any](w shuffle.Writer, in []Pair[K, V], kc Codec[K], vc Codec[V]) error {
	return shuffle.WriteRecords(w, len(in),
		func(dst []byte, i int) []byte { return kc.Append(dst, in[i].Key) },
		func(dst []byte, i int) []byte { return vc.Append(dst, in[i].Value) })
}

// emitPairs is the emit of a shuffle whose parent's partitions are pairs.
// A stream is built into a batch: WriteRecords re-reads values by index.
func emitPairs[K comparable, V any](kc Codec[K], vc Codec[V]) func(core.Row, shuffle.Writer) error {
	return func(row core.Row, w shuffle.Writer) error {
		return writePairs(w, batchOf[Pair[K, V]]([]core.Row{row}), kc, vc)
	}
}

// recordSource is a row that writes its own records: what a narrow step
// hands a shuffle when the batch alone does not say how to encode it (which
// side of a join it is, which partition it came from).
type recordSource func(w shuffle.Writer) error

func emitSource(row core.Row, w shuffle.Writer) error { return row.(recordSource)(w) }

// writeByKey writes n records in ascending key order — the order a map-side
// combiner flushes in. key and value append record i's encodings to dst,
// and must encode it alike until w is closed (see shuffle.WriteRecords):
// the keys are encoded once, end to end into an arena this call owns.
func writeByKey(w shuffle.Writer, n int, key, value func(dst []byte, i int) []byte) error {
	var arena []byte
	ends := make([]int, n) // key i is arena[ends[i-1]:ends[i]]
	for i := range ends {
		arena = key(arena, i)
		ends[i] = len(arena)
	}
	keyOf := func(i int32) []byte {
		if i == 0 {
			return arena[:ends[0]]
		}
		return arena[ends[i-1]:ends[i]]
	}
	order := shuffle.KeyOrder(n, keyOf)
	return shuffle.WriteRecords(w, n,
		func(dst []byte, j int) []byte { return append(dst, keyOf(order[j])...) },
		func(dst []byte, j int) []byte { return value(dst, int(order[j])) })
}

// ReduceByKey shuffles pairs into `parts` partitions and merges values
// with equal keys using `merge` (associative and commutative). Each map
// task folds its partition in K/V space first, reading a stream as its
// steps produce it, and encodes one record per distinct key, so highly
// repetitive keys move once.
func ReduceByKey[K comparable, V any](d *Dataset[Pair[K, V]], kc Codec[K], vc Codec[V], parts int, merge func(V, V) V) *Dataset[Pair[K, V]] {
	if parts <= 0 {
		parts = d.Partitions()
	}
	kc, vc = kc.forShuffle(), vc.forShuffle()
	emit := func(row core.Row, w shuffle.Writer) error {
		var index group.KeyTable[K]
		var vals []V // one per distinct key, merged in arrival order
		eachOf([]core.Row{row}, func(p Pair[K, V]) {
			if i, added := index.ID(p.Key); added { // vals grows as the keys do
				vals = append(slices.Grow(vals, cap(index.Keys())-len(vals)), p.Value)
			} else {
				vals[i] = merge(vals[i], p.Value)
			}
		})
		keys := index.Keys()
		return writeByKey(w, len(vals),
			func(dst []byte, i int) []byte { return kc.Append(dst, keys[i]) },
			func(dst []byte, i int) []byte { return vc.Append(dst, vals[i]) })
	}
	return shuffleOf(d.ctx, d.plan, core.ShuffleDep{Partitions: parts}, emit, func(recs shuffle.Records) []Pair[K, V] {
		var index group.ByteKeyTable
		var vals []V
		for r := 0; r < recs.Len(); r++ { // arrival order: float sums depend on it
			v := vc.decodeIn(recs.Value(r))
			if i, added := index.ID(recs.Key(r)); added { // vals grows as the keys do
				vals = append(slices.Grow(vals, index.Cap()-len(vals)), v)
			} else {
				vals[i] = merge(vals[i], v)
			}
		}
		out := make([]Pair[K, V], 0, len(vals))
		for _, i := range shuffle.KeyOrder(index.Len(), index.Key) {
			out = append(out, Pair[K, V]{Key: kc.decodeIn(index.Key(i)), Value: vals[i]})
		}
		return out
	})
}

// GroupByKey shuffles pairs and gathers each key's values into a slice.
// Prefer ReduceByKey when a merge function exists — GroupByKey moves every
// value across the network.
func GroupByKey[K comparable, V any](d *Dataset[Pair[K, V]], kc Codec[K], vc Codec[V], parts int) *Dataset[Pair[K, []V]] {
	if parts <= 0 {
		parts = d.Partitions()
	}
	kc, vc = kc.forShuffle(), vc.forShuffle()
	return shuffleOf(d.ctx, d.plan, core.ShuffleDep{Partitions: parts}, emitPairs(kc, vc), func(recs shuffle.Records) []Pair[K, []V] {
		var index group.ByteKeyTable
		var groups [][]V
		for r := 0; r < recs.Len(); r++ {
			i, added := index.ID(recs.Key(r))
			if added {
				groups = append(slices.Grow(groups, index.Cap()-len(groups)), nil)
			}
			groups[i] = append(groups[i], vc.decodeIn(recs.Value(r)))
		}
		out := make([]Pair[K, []V], 0, len(groups))
		for _, i := range shuffle.KeyOrder(index.Len(), index.Key) {
			out = append(out, Pair[K, []V]{Key: kc.decodeIn(index.Key(i)), Value: groups[i]})
		}
		return out
	})
}

// CountByKey is an action: the number of occurrences of each key.
func CountByKey[K comparable, V any](d *Dataset[Pair[K, V]], kc Codec[K], parts int) (map[K]int64, error) {
	ones := MapValues(d, func(V) int64 { return 1 })
	counted := ReduceByKey(ones, kc, Int64Codec, parts, func(a, b int64) int64 { return a + b })
	pairs, err := counted.Collect()
	if err != nil {
		return nil, err
	}
	out := make(map[K]int64, len(pairs))
	for _, p := range pairs {
		out[p.Key] += p.Value
	}
	return out, nil
}

// Join inner-joins two pair datasets on key, emitting one Joined per
// matching (left, right) combination. Implementation: both sides' records
// carry a side tag in front of the value, one shuffle over their union,
// reduce-side hash join.
func Join[K comparable, V, W any](a *Dataset[Pair[K, V]], b *Dataset[Pair[K, W]], kc Codec[K], vc Codec[V], wc Codec[W], parts int) *Dataset[Pair[K, Joined[V, W]]] {
	if parts <= 0 {
		parts = a.Partitions()
	}
	const leftTag, rightTag = 1, 0
	kc, vc, wc = kc.forShuffle(), vc.forShuffle(), wc.forShuffle()
	leftc := Codec[V]{Append: func(dst []byte, v V) []byte { return vc.Append(append(dst, leftTag), v) }}
	rightc := Codec[W]{Append: func(dst []byte, w W) []byte { return wc.Append(append(dst, rightTag), w) }}
	left := narrowOf(a, func(_ *core.TaskContext, in []Pair[K, V]) []core.Row {
		return []core.Row{recordSource(func(w shuffle.Writer) error { return writePairs(w, in, kc, leftc) })}
	})
	right := narrowOf(b, func(_ *core.TaskContext, in []Pair[K, W]) []core.Row {
		return []core.Row{recordSource(func(w shuffle.Writer) error { return writePairs(w, in, kc, rightc) })}
	})
	both := a.ctx.engine.NewUnion(left, right)
	return shuffleOf(a.ctx, both, core.ShuffleDep{Partitions: parts}, emitSource, func(recs shuffle.Records) []Pair[K, Joined[V, W]] {
		type sides struct{ lefts, rights [][]byte }
		var index group.ByteKeyTable
		var groups []sides
		for r := 0; r < recs.Len(); r++ {
			i, added := index.ID(recs.Key(r))
			if added {
				groups = append(slices.Grow(groups, index.Cap()-len(groups)), sides{})
			}
			if value := recs.Value(r); value[0] == leftTag {
				groups[i].lefts = append(groups[i].lefts, value[1:])
			} else {
				groups[i].rights = append(groups[i].rights, value[1:])
			}
		}
		var out []Pair[K, Joined[V, W]]
		for _, i := range shuffle.KeyOrder(index.Len(), index.Key) {
			key := kc.decodeIn(index.Key(i))
			for _, l := range groups[i].lefts {
				for _, r := range groups[i].rights {
					out = append(out, Pair[K, Joined[V, W]]{
						Key:   key,
						Value: Joined[V, W]{Left: vc.decodeIn(l), Right: wc.decodeIn(r)},
					})
				}
			}
		}
		return out
	})
}

// BroadcastJoin inner-joins a large dataset against a small one without a
// shuffle: the small side is collected at the driver, broadcast to every
// executor (charged to the fabric), and probed map-side. Use when the
// small side fits in memory; it removes the large side's shuffle entirely
// — the classic broadcast-vs-shuffle join trade-off.
func BroadcastJoin[K comparable, V, W any](large *Dataset[Pair[K, V]], small *Dataset[Pair[K, W]], smallBytes int64) (*Dataset[Pair[K, Joined[V, W]]], error) {
	rows, err := small.Collect()
	if err != nil {
		return nil, err
	}
	index := make(map[K][]W, len(rows))
	for _, p := range rows {
		index[p.Key] = append(index[p.Key], p.Value)
	}
	handle := large.ctx.engine.Broadcast(index, smallBytes)
	joined := step(large, false, func(yield func(Pair[K, Joined[V, W]])) func(Pair[K, V]) {
		m := handle.Value().(map[K][]W)
		return func(p Pair[K, V]) {
			for _, w := range m[p.Key] {
				yield(Pair[K, Joined[V, W]]{Key: p.Key, Value: Joined[V, W]{Left: p.Value, Right: w}})
			}
		}
	})
	return joined, nil
}

// SortByKey globally sorts the dataset by key into `parts` key-ranged
// partitions: concatenating CollectPartitions' output in partition order
// yields the fully sorted sequence. The key codec must be
// order-preserving (see Codec). Range boundaries come from sampling up to
// sampleSize keys per input partition.
func SortByKey[K comparable, V any](d *Dataset[Pair[K, V]], kc Codec[K], vc Codec[V], parts, sampleSize int) (*Dataset[Pair[K, V]], error) {
	if parts <= 0 {
		parts = d.Partitions()
	}
	if sampleSize <= 0 {
		sampleSize = 64
	}
	// Before the sampling closure captures kc: a speculative loser of the
	// sampling job may still be reading it after Collect has returned.
	kc, vc = kc.forShuffle(), vc.forShuffle()
	// Sampling job: up to sampleSize encoded keys per partition.
	samples := MapPartitions(d, func(_ int, rows []Pair[K, V]) [][]byte {
		stride := len(rows)/sampleSize + 1
		var out [][]byte
		for i := 0; i < len(rows); i += stride {
			out = append(out, kc.Encode(rows[i].Key))
		}
		return out
	})
	keys, err := samples.Collect()
	if err != nil {
		return nil, err
	}
	rp := shuffle.NewRangePartitioner(shuffle.SplitPoints(keys, parts))
	dep := core.ShuffleDep{Partitions: rp.Partitions(), Partitioner: rp.Partition, Sorted: true}
	return shuffleOf(d.ctx, d.plan, dep, emitPairs(kc, vc), func(recs shuffle.Records) []Pair[K, V] {
		out := make([]Pair[K, V], recs.Len())
		for i := range out {
			out[i] = Pair[K, V]{Key: kc.decodeIn(recs.Key(i)), Value: vc.decodeIn(recs.Value(i))}
		}
		return out
	}), nil
}
