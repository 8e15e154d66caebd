// Sequential reference oracle for the dataflow engine. Reference
// evaluates a Plan naively on a single goroutine — no stages, no tasks,
// no shuffle writers, no compression, no caching, no recovery — so its
// output depends only on the plan's user functions. Differential tests
// (internal/check, the EFT experiment, the chaos sweep) compare the
// distributed engine's output against it: the two paths share the job
// *spec* but almost no execution code, so agreement is strong evidence
// the engine moved and transformed the data correctly.
//
// A plan's narrow steps are user functions to the oracle, so a map-side
// fold written as one (hpbdc.ReduceByKey's) runs here too; tests that want
// an oracle independent of it compare against a plain loop. Record order within a reduce partition is only guaranteed to match the
// engine for Sorted shuffles; order-sensitive comparisons of unsorted
// shuffles should compare multisets (check.DiffMultiset).
package core

import (
	"bytes"
	"sort"

	"repro/internal/shuffle"
)

// Reference computes every output partition of p sequentially. The
// result has p.Partitions() entries, aligned with CollectPartitions.
func Reference(p *Plan) [][]Row {
	e := &refEval{shuffles: map[int][][]shuffle.Record{}}
	out := make([][]Row, p.parts)
	for i := 0; i < p.parts; i++ {
		out[i] = e.partition(p, i)
	}
	return out
}

// refEval memoizes shuffle groupings so a plan's map side runs once per
// shuffle boundary, not once per reduce partition.
type refEval struct {
	shuffles map[int][][]shuffle.Record // plan id -> reduce partition -> records
}

func (e *refEval) partition(p *Plan, part int) []Row {
	ctx := &TaskContext{Partition: part}
	switch p.kind {
	case kindSource:
		return p.source(ctx, part)
	case kindNarrow:
		return p.narrow(ctx, e.partition(p.parent, part))
	case kindUnion:
		child, local := p.unionChild(part)
		return e.partition(child, local)
	case kindShuffled:
		return p.dep.Post(ctx, e.shuffleRecords(p)[part])
	}
	panic("core: unknown plan kind")
}

// shuffleRecords evaluates the map side of a shuffle boundary: every
// parent row becomes a (key, value) record routed by the dependency's
// partitioner, and Sorted partitions are stable-sorted by key — the
// "stable sort + concat" reference the real writers are checked against.
func (e *refEval) shuffleRecords(p *Plan) [][]shuffle.Record {
	if recs, ok := e.shuffles[p.id]; ok {
		return recs
	}
	dep := p.dep
	route := dep.Partitioner
	if route == nil {
		n := dep.Partitions
		route = func(key []byte) int { return shuffle.Partition(key, n) }
	}
	out := make([][]shuffle.Record, dep.Partitions)
	for mp := 0; mp < p.parent.parts; mp++ {
		for _, row := range e.partition(p.parent, mp) {
			key := dep.KeyOf(row)
			tgt := route(key)
			out[tgt] = append(out[tgt], shuffle.Record{Key: key, Value: dep.ValueOf(row)})
		}
	}
	if dep.Sorted {
		for i := range out {
			recs := out[i]
			sort.SliceStable(recs, func(a, b int) bool {
				return bytes.Compare(recs[a].Key, recs[b].Key) < 0
			})
		}
	}
	e.shuffles[p.id] = out
	return out
}
