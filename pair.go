package hpbdc

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
	"sort"

	"repro/internal/core"
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

// recordsOf adds the map side of a shuffle: one narrow step that cuts a
// partition's batch into a slab of shuffle records. The step's rows point
// into the slab, and shuffleOf's KeyOf/ValueOf just read the fields.
func recordsOf[T any](d *Dataset[T], cut func(ctx *core.TaskContext, in []T) []shuffle.Record) *core.Plan {
	return narrowOf(d, func(ctx *core.TaskContext, in []T) []core.Row {
		recs := cut(ctx, in)
		rows := make([]core.Row, len(recs))
		for i := range recs {
			rows[i] = &recs[i]
		}
		return rows
	})
}

// shuffleOf shuffles the records plan; post turns one reduce partition's
// records into its batch.
func shuffleOf[U any](c *Context, records *core.Plan, dep core.ShuffleDep, post func(recs []shuffle.Record) []U) *Dataset[U] {
	dep.KeyOf = func(r core.Row) []byte { return r.(*shuffle.Record).Key }
	dep.ValueOf = func(r core.Row) []byte { return r.(*shuffle.Record).Value }
	dep.Post = func(_ *core.TaskContext, recs []shuffle.Record) []core.Row { return []core.Row{post(recs)} }
	return &Dataset[U]{ctx: c, plan: c.engine.NewShuffled(records, dep)}
}

// pairRecords encodes every pair as one record, in batch order.
func pairRecords[K comparable, V any](d *Dataset[Pair[K, V]], kc Codec[K], vc Codec[V]) *core.Plan {
	return recordsOf(d, func(_ *core.TaskContext, in []Pair[K, V]) []shuffle.Record {
		recs := make([]shuffle.Record, len(in))
		for i, p := range in {
			recs[i] = shuffle.Record{Key: kc.Encode(p.Key), Value: vc.Encode(p.Value)}
		}
		return recs
	})
}

// keyOrder returns 0..n-1 arranged so that key(i) ascends bytewise — the
// order sort.Strings gives the keys' string forms. Like the sort shuffle
// writer it compares cached 8-byte prefixes and reads a key only on a tie.
func keyOrder(n int, key func(i int) []byte) []int32 {
	prefix, order := make([]uint64, n), make([]int32, n)
	for i := range order {
		var b [8]byte
		copy(b[:], key(i))
		prefix[i], order[i] = binary.BigEndian.Uint64(b[:]), int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(prefix[a], prefix[b]); c != 0 {
			return c
		}
		return bytes.Compare(key(int(a)), key(int(b)))
	})
	return order
}

// byKey returns the records in ascending key order.
func byKey(recs []shuffle.Record) []shuffle.Record {
	out := make([]shuffle.Record, len(recs))
	for j, i := range keyOrder(len(recs), func(i int) []byte { return recs[i].Key }) {
		out[j] = recs[i]
	}
	return out
}

// keyGroups numbers the distinct keys of a reduce partition in order of
// first arrival; a key's identity is its encoded bytes.
type keyGroups struct {
	index map[string]int32
	keys  [][]byte
}

func newKeyGroups() *keyGroups { return &keyGroups{index: map[string]int32{}} }

// group returns key's group number and whether this is its first record.
func (g *keyGroups) group(key []byte) (int32, bool) {
	i, ok := g.index[string(key)] // no allocation: the conversion is only a lookup
	if !ok {
		i = int32(len(g.keys))
		g.index[string(key)] = i
		g.keys = append(g.keys, key)
	}
	return i, !ok
}

// ascending returns the group numbers in ascending key order, which keeps
// reduce output deterministic.
func (g *keyGroups) ascending() []int32 {
	return keyOrder(len(g.keys), func(i int) []byte { return g.keys[i] })
}

// ReduceByKey shuffles pairs into `parts` partitions and merges values
// with equal keys using `merge` (associative and commutative). Each map
// task folds its partition in K/V space first and encodes one record per
// distinct key, so highly repetitive keys move once.
func ReduceByKey[K comparable, V any](d *Dataset[Pair[K, V]], kc Codec[K], vc Codec[V], parts int, merge func(V, V) V) *Dataset[Pair[K, V]] {
	if parts <= 0 {
		parts = d.Partitions()
	}
	folded := recordsOf(d, func(_ *core.TaskContext, in []Pair[K, V]) []shuffle.Record {
		index := map[K]int32{}
		var slots []Pair[K, V] // one per distinct key, values merged in arrival order
		for _, p := range in {
			if i, ok := index[p.Key]; ok {
				slots[i].Value = merge(slots[i].Value, p.Value)
			} else {
				index[p.Key] = int32(len(slots))
				slots = append(slots, p)
			}
		}
		recs := make([]shuffle.Record, len(slots))
		for i, s := range slots {
			recs[i] = shuffle.Record{Key: kc.Encode(s.Key), Value: vc.Encode(s.Value)}
		}
		return byKey(recs)
	})
	return shuffleOf(d.ctx, folded, core.ShuffleDep{Partitions: parts}, func(recs []shuffle.Record) []Pair[K, V] {
		g := newKeyGroups()
		var vals []V
		for _, rec := range recs { // arrival order: float sums depend on it
			v := vc.Decode(rec.Value)
			if i, first := g.group(rec.Key); first {
				vals = append(vals, v)
			} else {
				vals[i] = merge(vals[i], v)
			}
		}
		out := make([]Pair[K, V], 0, len(vals))
		for _, i := range g.ascending() {
			out = append(out, Pair[K, V]{Key: kc.Decode(g.keys[i]), Value: vals[i]})
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
	return shuffleOf(d.ctx, pairRecords(d, kc, vc), core.ShuffleDep{Partitions: parts}, func(recs []shuffle.Record) []Pair[K, []V] {
		g := newKeyGroups()
		var groups [][]V
		for _, rec := range recs {
			i, first := g.group(rec.Key)
			if first {
				groups = append(groups, nil)
			}
			groups[i] = append(groups[i], vc.Decode(rec.Value))
		}
		out := make([]Pair[K, []V], 0, len(groups))
		for _, i := range g.ascending() {
			out = append(out, Pair[K, []V]{Key: kc.Decode(g.keys[i]), Value: groups[i]})
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
	left := pairRecords(a, kc, Codec[V]{Encode: func(v V) []byte { return append([]byte{leftTag}, vc.Encode(v)...) }})
	right := pairRecords(b, kc, Codec[W]{Encode: func(w W) []byte { return append([]byte{rightTag}, wc.Encode(w)...) }})
	both := a.ctx.engine.NewUnion(left, right)
	return shuffleOf(a.ctx, both, core.ShuffleDep{Partitions: parts}, func(recs []shuffle.Record) []Pair[K, Joined[V, W]] {
		type sides struct{ lefts, rights [][]byte }
		g := newKeyGroups()
		var groups []sides
		for _, rec := range recs {
			i, first := g.group(rec.Key)
			if first {
				groups = append(groups, sides{})
			}
			if rec.Value[0] == leftTag {
				groups[i].lefts = append(groups[i].lefts, rec.Value[1:])
			} else {
				groups[i].rights = append(groups[i].rights, rec.Value[1:])
			}
		}
		var out []Pair[K, Joined[V, W]]
		for _, i := range g.ascending() {
			key := kc.Decode(g.keys[i])
			for _, l := range groups[i].lefts {
				for _, r := range groups[i].rights {
					out = append(out, Pair[K, Joined[V, W]]{
						Key:   key,
						Value: Joined[V, W]{Left: vc.Decode(l), Right: wc.Decode(r)},
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
	joined := FlatMap(large, func(p Pair[K, V]) []Pair[K, Joined[V, W]] {
		m := handle.Value().(map[K][]W)
		matches := m[p.Key]
		out := make([]Pair[K, Joined[V, W]], 0, len(matches))
		for _, w := range matches {
			out = append(out, Pair[K, Joined[V, W]]{
				Key:   p.Key,
				Value: Joined[V, W]{Left: p.Value, Right: w},
			})
		}
		return out
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
	rp := shuffle.NewRangePartitioner(splitPoints(keys, parts))
	dep := core.ShuffleDep{Partitions: rp.Partitions(), Partitioner: rp.Partition, Sorted: true}
	return shuffleOf(d.ctx, pairRecords(d, kc, vc), dep, func(recs []shuffle.Record) []Pair[K, V] {
		out := make([]Pair[K, V], len(recs))
		for i, rec := range recs {
			out[i] = Pair[K, V]{Key: kc.Decode(rec.Key), Value: vc.Decode(rec.Value)}
		}
		return out
	}), nil
}

// splitPoints picks parts-1 ascending split keys from the sample.
func splitPoints(sample [][]byte, parts int) [][]byte {
	sort.Slice(sample, func(i, j int) bool {
		return string(sample[i]) < string(sample[j])
	})
	var splits [][]byte
	for i := 1; i < parts && len(sample) > 0; i++ {
		idx := i * len(sample) / parts
		if idx >= len(sample) {
			idx = len(sample) - 1
		}
		splits = append(splits, sample[idx])
	}
	// Deduplicate adjacent equal splits (skewed samples).
	var out [][]byte
	for _, s := range splits {
		if len(out) == 0 || string(out[len(out)-1]) != string(s) {
			out = append(out, s)
		}
	}
	return out
}
