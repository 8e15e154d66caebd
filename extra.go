package hpbdc

import (
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/shuffle"
)

// Distinct removes duplicates (by codec-encoded identity) with one
// shuffle. Each map task drops its own duplicates first, so a value moves
// at most once per map partition.
func Distinct[T comparable](d *Dataset[T], codec Codec[T], parts int) *Dataset[T] {
	if parts <= 0 {
		parts = d.Partitions()
	}
	codec = codec.forShuffle()
	hash := shuffle.KeyHash[T]()
	emit := func(row core.Row, w shuffle.Writer) error {
		seen := shuffle.NewKeyTable(hash)
		eachOf([]core.Row{row}, func(t T) { seen.ID(t) })
		unique := seen.Keys()
		return writeByKey(w, len(unique),
			func(dst []byte, i int) []byte { return codec.Append(dst, unique[i]) },
			func(dst []byte, _ int) []byte { return dst })
	}
	return shuffleOf(d.ctx, d.plan, core.ShuffleDep{Partitions: parts}, emit, func(recs shuffle.Records) []T {
		var seen shuffle.ByteKeyTable
		var out []T
		for r := 0; r < recs.Len(); r++ {
			if _, added := seen.ID(recs.Key(r)); added {
				out = append(out, codec.decodeIn(recs.Key(r)))
			}
		}
		return out
	})
}

// Sample keeps each element independently with probability frac,
// deterministically per partition (so lineage recovery reproduces the
// same sample).
func (d *Dataset[T]) Sample(frac float64, seed uint64) *Dataset[T] {
	if frac >= 1 {
		return d
	}
	return MapPartitions(d, func(part int, in []T) []T {
		gen := rng.New(seed + uint64(part)*0x9e3779b9)
		var out []T
		for _, t := range in {
			if gen.Float64() < frac {
				out = append(out, t)
			}
		}
		return out
	})
}

// Repartition redistributes the dataset into `parts` partitions via a
// shuffle keyed on a deterministic per-(partition, position) index — the
// fix for skewed or too-few partitions before an expensive stage. The key
// must be deterministic (not a global counter): lineage recovery may
// recompute a subset of map tasks, and only a reproducible key assignment
// keeps rows in the same reduce partitions across attempts.
func Repartition[T any](d *Dataset[T], codec Codec[T], parts int) *Dataset[T] {
	if parts <= 0 {
		parts = d.ctx.cluster.Size()
	}
	codec = codec.forShuffle()
	indexed := narrowOf(d, func(ctx *core.TaskContext, in []T) []core.Row {
		// Golden-ratio stride decorrelates partition and position so hash
		// partitioning spreads evenly.
		base := uint64(ctx.Partition) * 0x9E3779B97F4A7C15
		return []core.Row{recordSource(func(w shuffle.Writer) error {
			return shuffle.WriteRecords(w, len(in),
				func(dst []byte, i int) []byte { return binary.LittleEndian.AppendUint64(dst, base+uint64(i)) },
				func(dst []byte, i int) []byte { return codec.Append(dst, in[i]) })
		})}
	})
	return shuffleOf(d.ctx, indexed, core.ShuffleDep{Partitions: parts}, emitSource, func(recs shuffle.Records) []T {
		out := make([]T, recs.Len())
		for i := range out {
			out[i] = codec.decodeIn(recs.Value(i))
		}
		return out
	})
}
