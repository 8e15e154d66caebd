// Package core is the framework's primary contribution: a lineage-based
// DAG dataflow engine in the RDD tradition. A job is a graph of logical
// plans; the engine splits it into stages at shuffle boundaries, runs each
// stage's partitions as real tasks on the cluster's executor pools with
// data-locality preferences, moves intermediate data through the pluggable
// shuffle subsystem (charging transfer costs to the network fabric), and
// recovers from task and node failures by recomputing exactly the lost
// lineage — or restoring from a DFS checkpoint when one exists (the E9
// ablation).
package core

import (
	"repro/internal/shuffle"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Row is one element of a dataset partition. The engine is untyped; the
// public hpbdc package layers generics on top.
type Row = any

// Lazy is a row that computes its contents when read, such as the typed
// layer's stream of a partition through its element-wise steps. The engine
// settles a lazy row before caching it, so a cached partition holds what
// the row yields, not a computation every later job would run again, and
// a result task settles its rows, so the row's code runs in the task —
// retried on a panic like any other — and a job returns no Lazy row.
type Lazy interface {
	Settle() Row
}

// TaskContext is passed to user compute closures.
type TaskContext struct {
	// Node is where the task is running.
	Node topology.NodeID
	// Partition is the task's partition index.
	Partition int
	// Attempt counts retries of this partition (0 = first try).
	Attempt int
	// Trace is the task's causal context: shuffle fetches and any other
	// downstream work issued by the task parent their spans under it, so
	// the cross-node timeline links executor work back to the stage and
	// job that caused it. Zero when tracing is off.
	Trace trace.TraceContext
}

// ShuffleDep describes how a plan's input is redistributed: how rows of the
// parent become keyed records, how many partitions result, whether the
// shuffle sorts by key, and how the reduce side turns fetched records back
// into rows.
type ShuffleDep struct {
	// Partitions is the reduce-side partition count; required.
	Partitions int
	// Emit writes one parent row's records to w; required. The map task
	// calls it once per row, so a row that is a whole batch is encoded in
	// one call, through shuffle.WriteRecords: its callbacks must encode a
	// record the same way until the task closes w, which is after the
	// task's last Emit. Emit must not keep w.
	Emit func(row Row, w shuffle.Writer) error
	// Post converts one reduce partition's records into output rows;
	// required. Records arrive key-sorted when Sorted is set. The view is
	// Post's alone (see shuffle.Records): rows may keep slices of it.
	Post func(ctx *TaskContext, recs shuffle.Records) []Row
	// Sorted selects the sort-based shuffle writer and a merged,
	// key-ordered reduce-side read.
	Sorted bool
	// Partitioner overrides hash partitioning (e.g. range partitioning).
	Partitioner func(key []byte) int
}

type planKind int

const (
	kindSource planKind = iota
	kindNarrow
	kindUnion
	kindShuffled
)

// Plan is a node in the logical dataflow graph. Plans are immutable once
// built; construction happens through the New* functions below (or the
// typed wrappers in package hpbdc).
type Plan struct {
	id    int
	kind  planKind
	parts int

	// kindSource
	source func(ctx *TaskContext, part int) []Row
	prefs  func(part int) []topology.NodeID

	// kindNarrow
	parent *Plan
	narrow func(ctx *TaskContext, rows []Row) []Row

	// kindUnion
	parents []*Plan

	// kindShuffled
	dep *ShuffleDep

	// caching / checkpointing state lives in the engine, keyed by id.
	cache      bool
	checkpoint *checkpointSpec
}

type checkpointSpec struct {
	path   string
	encode func(Row) []byte
	decode func([]byte) Row
}

// Partitions returns the plan's partition count.
func (p *Plan) Partitions() int { return p.parts }

// ID returns the plan's engine-unique identity.
func (p *Plan) ID() int { return p.id }

// NewSource creates a leaf plan: fn computes partition `part` from scratch
// (reading a DFS file, generating synthetic data, wrapping an in-memory
// slice). prefs optionally reports preferred executor nodes per partition
// for locality scheduling; it may be nil.
func (e *Engine) NewSource(parts int, fn func(ctx *TaskContext, part int) []Row, prefs func(part int) []topology.NodeID) *Plan {
	if parts <= 0 {
		panic("core: source must have at least one partition")
	}
	if fn == nil {
		panic("core: source compute function is required")
	}
	return &Plan{id: e.nextPlanID(), kind: kindSource, parts: parts, source: fn, prefs: prefs}
}

// NewNarrow creates a one-to-one transformed plan: output partition i is
// fn applied to parent partition i. Narrow plans pipeline — they run inside
// their consumer's task with no materialization.
func (e *Engine) NewNarrow(parent *Plan, fn func(ctx *TaskContext, rows []Row) []Row) *Plan {
	if parent == nil || fn == nil {
		panic("core: narrow requires a parent and a function")
	}
	return &Plan{id: e.nextPlanID(), kind: kindNarrow, parts: parent.parts, parent: parent, narrow: fn}
}

// NewUnion concatenates plans: the result has the sum of the parents'
// partitions, in order.
func (e *Engine) NewUnion(parents ...*Plan) *Plan {
	if len(parents) == 0 {
		panic("core: union requires at least one parent")
	}
	total := 0
	for _, p := range parents {
		total += p.parts
	}
	return &Plan{id: e.nextPlanID(), kind: kindUnion, parts: total, parents: parents}
}

// NewShuffled creates a shuffle boundary over parent with the given
// dependency description.
func (e *Engine) NewShuffled(parent *Plan, dep ShuffleDep) *Plan {
	if parent == nil {
		panic("core: shuffle requires a parent")
	}
	if dep.Partitions <= 0 || dep.Emit == nil || dep.Post == nil {
		panic("core: ShuffleDep requires Partitions, Emit and Post")
	}
	d := dep
	return &Plan{id: e.nextPlanID(), kind: kindShuffled, parts: dep.Partitions, parent: parent, dep: &d}
}

// Cache marks the plan's partitions for in-memory memoization: the first
// computation of each partition is retained, Lazy rows settled, and reused
// by later jobs.
func (p *Plan) Cache() *Plan {
	p.cache = true
	return p
}

// unionChild maps a union output partition to (parent, parent partition).
func (p *Plan) unionChild(part int) (*Plan, int) {
	for _, parent := range p.parents {
		if part < parent.parts {
			return parent, part
		}
		part -= parent.parts
	}
	panic("core: union partition out of range")
}
