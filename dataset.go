package hpbdc

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/serde"
	"repro/internal/topology"
)

// Dataset is a typed, immutable, partitioned collection — the user-facing
// handle on a plan in the engine's lineage graph. Transformations are lazy;
// actions (Collect, Count, Reduce, Save) trigger execution.
type Dataset[T any] struct {
	ctx  *Context
	plan *core.Plan
}

// Context returns the dataset's owning context.
func (d *Dataset[T]) Context() *Context { return d.ctx }

// Plan exposes the underlying logical plan. Its partitions hold at most
// one row each: the partition's []T batch, or within a task a stream
// (elems). A job's results are batches, since result tasks settle
// streams, so engine-level row operations (core.Engine.Count, Checkpoint)
// see batches, not elements: use the Dataset methods for those.
func (d *Dataset[T]) Plan() *core.Plan { return d.plan }

// Partitions returns the dataset's partition count.
func (d *Dataset[T]) Partitions() int { return d.plan.Partitions() }

// Every plan of the typed layer has zero or one row per partition, and
// that row is the whole partition: elements are never boxed one by one.
// The row is a batch ([]T) or a stream (elems[T]). A batch is read-only to
// everyone once handed on — it may be the user's own slice or a cached
// partition — so operators build fresh outputs and actions return copies.

// elems is a stream: the partition an element-wise step (Map, Filter,
// FlatMap) hands on instead of a batch. each runs the chain of steps fused
// since the nearest real batch over that batch, passing each element to
// yield in order. Each call runs every user function of the chain again,
// so a consumer reads a stream at most once per task computation; one that
// must index or re-read the elements builds a batch (batchOf).
type elems[T any] interface {
	each(yield func(T))
	size() int // how many elements each yields, or -1 past a Filter or FlatMap
}

// fused is the stream of one step over a partition, rows: chain turns the
// step's consumer into what takes rows' elements one at a time.
type fused[T, U any] struct {
	rows  []core.Row
	chain func(yield func(U)) func(T)
	n     int
}

func (s *fused[T, U]) each(yield func(U)) { eachOf(s.rows, s.chain(yield)) }
func (s *fused[T, U]) size() int          { return s.n }

// Settle builds the stream's batch: what a result task hands the driver
// and what the engine caches, not the chain (see core.Lazy).
func (s *fused[T, U]) Settle() core.Row { return batchOf[U]([]core.Row{s}) }

// eachOf passes a partition's elements to yield in order, reading a
// stream once.
func eachOf[T any](rows []core.Row, yield func(T)) {
	for _, row := range rows {
		if s, ok := row.(elems[T]); ok {
			s.each(yield)
			continue
		}
		for _, t := range row.([]T) {
			yield(t)
		}
	}
}

// lenOf is how many elements a partition holds, or -1 for a stream that
// knows only once it has run.
func lenOf[T any](rows []core.Row) int {
	if len(rows) == 0 {
		return 0
	}
	if s, ok := rows[0].(elems[T]); ok {
		return s.size()
	}
	return len(rows[0].([]T))
}

// batchOf returns a partition's elements as a slice: the batch itself, or
// one built from the stream for a consumer that needs a slice.
func batchOf[T any](rows []core.Row) []T {
	if len(rows) == 0 {
		return nil
	}
	if s, ok := rows[0].(elems[T]); ok {
		out := make([]T, 0, max(s.size(), 0))
		s.each(func(t T) { out = append(out, t) })
		return out
	}
	return rows[0].([]T)
}

// sourceOf wraps a batch-producing function as a source plan.
func sourceOf[T any](c *Context, parts int, fn func(ctx *core.TaskContext, part int) []T, prefs func(int) []topology.NodeID) *Dataset[T] {
	plan := c.engine.NewSource(parts, func(ctx *core.TaskContext, part int) []core.Row {
		return []core.Row{fn(ctx, part)}
	}, prefs)
	return &Dataset[T]{ctx: c, plan: plan}
}

// Parallelize distributes data across parts partitions round-robin.
func Parallelize[T any](c *Context, data []T, parts int) *Dataset[T] {
	if parts <= 0 {
		parts = c.cluster.Size()
	}
	owned := append([]T(nil), data...)
	return sourceOf(c, parts, func(_ *core.TaskContext, part int) []T {
		var out []T
		for i := part; i < len(owned); i += parts {
			out = append(out, owned[i])
		}
		return out
	}, nil)
}

// SourceFunc builds a dataset whose partitions are generated on demand by
// fn — the entry point for synthetic workloads. fn must be deterministic
// per partition: it may be re-invoked for lineage recovery. The slice fn
// returns is the partition downstream operators read: it is read-only
// from then on, for fn's owner too.
func SourceFunc[T any](c *Context, parts int, fn func(part int) []T) *Dataset[T] {
	return sourceOf(c, parts, func(_ *core.TaskContext, part int) []T { return fn(part) }, nil)
}

// step adds an element-wise step over d. chain turns the step's consumer,
// yield, into what takes d's elements one at a time; onePerElement says
// the step yields exactly one element for each it takes (Map). The step's
// partition is a stream over d's: chained steps and the consumer after
// them run as one loop over the nearest real batch, and no batch is built
// between.
func step[T, U any](d *Dataset[T], onePerElement bool, chain func(yield func(U)) func(T)) *Dataset[U] {
	return &Dataset[U]{ctx: d.ctx, plan: d.ctx.engine.NewNarrow(d.plan, func(_ *core.TaskContext, rows []core.Row) []core.Row {
		n := -1
		if onePerElement {
			n = lenOf[T](rows)
		}
		return []core.Row{&fused[T, U]{rows: rows, chain: chain, n: n}}
	})}
}

// Map applies f to every element.
func Map[T, U any](d *Dataset[T], f func(T) U) *Dataset[U] {
	return step(d, true, func(yield func(U)) func(T) {
		return func(t T) { yield(f(t)) }
	})
}

// FlatMap applies f and flattens the results.
func FlatMap[T, U any](d *Dataset[T], f func(T) []U) *Dataset[U] {
	return step(d, false, func(yield func(U)) func(T) {
		return func(t T) {
			for _, u := range f(t) {
				yield(u)
			}
		}
	})
}

// Filter keeps elements where f is true.
func (d *Dataset[T]) Filter(f func(T) bool) *Dataset[T] {
	return step(d, false, func(yield func(T)) func(T) {
		return func(t T) {
			if f(t) {
				yield(t)
			}
		}
	})
}

// MapPartitions applies f to whole partitions at once (for per-partition
// setup such as building a local index). rows is the upstream partition
// itself, not a copy: f must not modify it, and whatever f returns is
// read-only from then on.
func MapPartitions[T, U any](d *Dataset[T], f func(part int, rows []T) []U) *Dataset[U] {
	return &Dataset[U]{ctx: d.ctx, plan: narrowOf(d, func(ctx *core.TaskContext, in []T) []core.Row {
		return []core.Row{f(ctx.Partition, in)}
	})}
}

// narrowOf adds a narrow step over d's batches, built from a stream where
// d hands one on; fn returns the step's rows (one batch, or the
// recordSource a shuffle is about to drain).
func narrowOf[T any](d *Dataset[T], fn func(ctx *core.TaskContext, in []T) []core.Row) *core.Plan {
	return d.ctx.engine.NewNarrow(d.plan, func(ctx *core.TaskContext, rows []core.Row) []core.Row {
		return fn(ctx, batchOf[T](rows))
	})
}

// Union concatenates datasets of the same type.
func Union[T any](a *Dataset[T], more ...*Dataset[T]) *Dataset[T] {
	plans := []*core.Plan{a.plan}
	for _, d := range more {
		plans = append(plans, d.plan)
	}
	return &Dataset[T]{ctx: a.ctx, plan: a.ctx.engine.NewUnion(plans...)}
}

// Cache memoizes computed partitions in memory for reuse across jobs. The
// cached slices are what later jobs' operators read, never copies; a
// stream is cached as the batch it yields, so no later job runs its chain.
func (d *Dataset[T]) Cache() *Dataset[T] {
	d.plan.Cache()
	return d
}

// Collect computes the dataset and returns all elements.
func (d *Dataset[T]) Collect() ([]T, error) {
	parts, err := d.ctx.engine.Run(d.plan)
	if err != nil {
		return nil, err
	}
	return flatten[T](parts), nil
}

// flatten concatenates the partitions' batches into a slice the caller owns.
func flatten[T any](parts [][]core.Row) []T {
	n := 0
	for _, rows := range parts {
		n += len(batchOf[T](rows))
	}
	out := make([]T, 0, n)
	for _, rows := range parts {
		out = append(out, batchOf[T](rows)...)
	}
	return out
}

// copyPartitions copies each partition's batch into a slice the caller owns.
func copyPartitions[T any](parts [][]core.Row) [][]T {
	out := make([][]T, len(parts))
	for i, rows := range parts {
		batch := batchOf[T](rows)
		out[i] = append(make([]T, 0, len(batch)), batch...)
	}
	return out
}

// CollectPartitions computes the dataset preserving partition boundaries.
func (d *Dataset[T]) CollectPartitions() ([][]T, error) {
	parts, err := d.ctx.engine.Run(d.plan)
	if err != nil {
		return nil, err
	}
	return copyPartitions[T](parts), nil
}

// Count returns the number of elements.
func (d *Dataset[T]) Count() (int64, error) {
	parts, err := d.ctx.engine.Run(d.plan)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, rows := range parts {
		n += int64(len(batchOf[T](rows)))
	}
	return n, nil
}

// Reduce folds all elements with f (which must be associative and
// commutative). It fails on an empty dataset.
func (d *Dataset[T]) Reduce(f func(T, T) T) (T, error) {
	var zero T
	// Per-partition partial reduce runs in parallel; the driver folds the
	// partials.
	partials := &Dataset[T]{ctx: d.ctx, plan: d.ctx.engine.NewNarrow(d.plan, func(_ *core.TaskContext, rows []core.Row) []core.Row {
		var acc []T // the partition's partial, once it has one
		eachOf(rows, func(t T) {
			if len(acc) == 0 {
				acc = append(acc, t)
			} else {
				acc[0] = f(acc[0], t)
			}
		})
		return []core.Row{acc}
	})}
	vals, err := partials.Collect()
	if err != nil {
		return zero, err
	}
	if len(vals) == 0 {
		return zero, errors.New("hpbdc: Reduce of empty dataset")
	}
	acc := vals[0]
	for _, v := range vals[1:] {
		acc = f(acc, v)
	}
	return acc, nil
}

// Checkpoint materializes the dataset to the DFS, truncating its lineage:
// failures after the checkpoint restore from storage instead of
// recomputing upstream stages. A partition is stored as one record whose
// value frames the batch's elements one after the other.
func (d *Dataset[T]) Checkpoint(path string, codec Codec[T]) error {
	return d.ctx.engine.Checkpoint(d.plan, path,
		func(r core.Row) []byte {
			var buf []byte
			for _, t := range r.([]T) {
				buf = serde.AppendRecord(buf, nil, codec.Encode(t))
			}
			return buf
		},
		func(b []byte) core.Row {
			var out []T
			for len(b) > 0 {
				rec, rest, err := serde.Next(b)
				if err != nil {
					panic(fmt.Sprintf("hpbdc: checkpoint: %v", err))
				}
				out, b = append(out, codec.Decode(rec.Value)), rest
			}
			return out
		},
	)
}

// ---------------------------------------------------------------------------
// DFS text I/O

// SaveAsTextFile writes one DFS file per partition under prefix
// (prefix/part-00000, ...), each line one element, written node-locally.
// It is an action.
func SaveAsTextFile(d *Dataset[string], prefix string) error {
	fs := d.ctx.fs
	sink := d.ctx.engine.NewNarrow(d.plan, func(ctx *core.TaskContext, rows []core.Row) []core.Row {
		path := fmt.Sprintf("%s/part-%05d", prefix, ctx.Partition)
		_ = fs.Delete(path) // idempotence under task retry
		w, err := fs.CreateWith(path, 0, ctx.Node)
		if err != nil {
			panic(fmt.Sprintf("hpbdc: SaveAsTextFile: %v", err))
		}
		eachOf(rows, func(line string) {
			if _, err := io.WriteString(w, line); err != nil {
				panic(err)
			}
			if _, err := w.Write([]byte{'\n'}); err != nil {
				panic(err)
			}
		})
		if err := w.Close(); err != nil {
			panic(err)
		}
		return nil
	})
	_, err := d.ctx.engine.Run(sink)
	return err
}

// TextFile reads every DFS file under prefix as a dataset of lines, one
// partition per file, scheduled next to the file's first block replicas.
// Remote reads charge the fabric.
func TextFile(c *Context, prefix string) *Dataset[string] {
	files := c.fs.List(prefix)
	if len(files) == 0 {
		return Parallelize[string](c, nil, 1)
	}
	prefs := func(part int) []topology.NodeID {
		locs, err := c.fs.BlockLocations(files[part])
		if err != nil || len(locs) == 0 {
			return nil
		}
		return locs[0].Replicas
	}
	return sourceOf(c, len(files), func(ctx *core.TaskContext, part int) []string {
		locs, err := c.fs.BlockLocations(files[part])
		if err != nil {
			panic(fmt.Sprintf("hpbdc: TextFile: %v", err))
		}
		var data []byte
		for _, b := range locs {
			blockData, served, err := c.fs.ReadBlock(b.ID, ctx.Node)
			if err != nil {
				panic(fmt.Sprintf("hpbdc: TextFile: %v", err))
			}
			cost := c.fabric.Cost(served, ctx.Node, b.Length)
			c.engine.Reg.Counter("net_time_ns").Add(int64(cost))
			c.engine.Reg.Counter("input_bytes").Add(b.Length)
			data = append(data, blockData...)
		}
		var lines []string
		for _, line := range strings.Split(string(data), "\n") {
			if line != "" {
				lines = append(lines, line)
			}
		}
		return lines
	}, prefs)
}
