// Sequential reference oracle for the dataflow engine. Reference
// evaluates a Plan naively on a single goroutine — no stages, no tasks,
// no shuffle writers, no compression, no caching, no recovery — so its
// output depends only on the plan's user functions. Differential tests
// (internal/check, the EFT experiment, the chaos sweep) compare the
// distributed engine's output against it: the two paths share the job
// *spec* but almost no execution code, so agreement is strong evidence
// the engine moved and transformed the data correctly.
//
// A plan's narrow steps and a dependency's Emit and Post are user functions
// to the oracle, so a map-side fold written in Emit (hpbdc.ReduceByKey's)
// runs here too; tests that want an oracle independent of it compare
// against a plain loop. Record order within a reduce partition is only
// guaranteed to match the engine for Sorted shuffles; order-sensitive
// comparisons of unsorted shuffles should compare multisets
// (check.DiffMultiset).
package core

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/shuffle"
)

// Reference computes every output partition of p sequentially. The
// result has p.Partitions() entries, aligned with CollectPartitions, and
// holds no Lazy row, as Run's does not.
func Reference(p *Plan) [][]Row {
	e := &refEval{shuffles: map[int][]shuffle.Records{}}
	out := make([][]Row, p.parts)
	for i := 0; i < p.parts; i++ {
		out[i] = settle(e.partition(p, i))
	}
	return out
}

// refEval memoizes shuffle groupings so a plan's map side runs once per
// shuffle boundary, not once per reduce partition.
type refEval struct {
	shuffles map[int][]shuffle.Records // plan id -> reduce partition -> records
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
// parent row's Emit writes into a collector that routes each record by the
// dependency's partitioner, and Sorted partitions are stable-sorted by key
// — the "stable sort + concat" reference the real writers are checked
// against.
func (e *refEval) shuffleRecords(p *Plan) []shuffle.Records {
	if recs, ok := e.shuffles[p.id]; ok {
		return recs
	}
	dep := p.dep
	w := &refWriter{route: dep.Partitioner, parts: make([][]shuffle.Record, dep.Partitions)}
	if w.route == nil {
		w.route = func(key []byte) int { return shuffle.Partition(key, dep.Partitions) }
	}
	for mp := 0; mp < p.parent.parts; mp++ {
		for _, row := range e.partition(p.parent, mp) {
			if err := dep.Emit(row, w); err != nil {
				panic(fmt.Sprintf("core: reference emit: %v", err))
			}
		}
	}
	out := make([]shuffle.Records, dep.Partitions)
	for i, recs := range w.parts {
		if dep.Sorted {
			sort.SliceStable(recs, func(a, b int) bool {
				return bytes.Compare(recs[a].Key, recs[b].Key) < 0
			})
		}
		out[i] = shuffle.RecordsOf(recs)
	}
	e.shuffles[p.id] = out
	return out
}

// refWriter is the shuffle.Writer the reference hands to Emit: it keeps a
// copy of every record on its partition's list, in arrival order.
type refWriter struct {
	route func(key []byte) int
	parts [][]shuffle.Record
}

func (w *refWriter) Write(key, value []byte) error {
	p := w.route(key)
	w.parts[p] = append(w.parts[p], shuffle.Record{Key: bytes.Clone(key), Value: bytes.Clone(value)})
	return nil
}

func (w *refWriter) Close() ([]shuffle.Block, shuffle.Stats, error) {
	return nil, shuffle.Stats{}, nil
}
