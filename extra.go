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
	unique := recordsOf(d, func(_ *core.TaskContext, in []T) []shuffle.Record {
		seen := map[T]struct{}{}
		var recs []shuffle.Record
		for _, t := range in {
			if _, dup := seen[t]; !dup {
				seen[t] = struct{}{}
				recs = append(recs, shuffle.Record{Key: codec.Encode(t)})
			}
		}
		return byKey(recs)
	})
	return shuffleOf(d.ctx, unique, core.ShuffleDep{Partitions: parts}, func(recs []shuffle.Record) []T {
		g := newKeyGroups()
		var out []T
		for _, rec := range recs {
			if _, first := g.group(rec.Key); first {
				out = append(out, codec.Decode(rec.Key))
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
	indexed := recordsOf(d, func(ctx *core.TaskContext, in []T) []shuffle.Record {
		recs := make([]shuffle.Record, len(in))
		keys := make([]byte, 0, 8*len(in))
		for i, t := range in {
			// Golden-ratio stride decorrelates partition and position so
			// hash partitioning spreads evenly.
			keys = binary.LittleEndian.AppendUint64(keys, uint64(ctx.Partition)*0x9E3779B97F4A7C15+uint64(i))
			recs[i] = shuffle.Record{Key: keys[8*i : 8*i+8 : 8*i+8], Value: codec.Encode(t)}
		}
		return recs
	})
	return shuffleOf(d.ctx, indexed, core.ShuffleDep{Partitions: parts}, func(recs []shuffle.Record) []T {
		out := make([]T, len(recs))
		for i, rec := range recs {
			out[i] = codec.Decode(rec.Value)
		}
		return out
	})
}
