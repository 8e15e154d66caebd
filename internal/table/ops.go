package table

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/shuffle"
)

// BroadcastJoin inner-joins t with right on t.leftCol == right.rightCol
// without shuffling t: the right side is collected at the driver, built
// into a hash map, broadcast to every executor (charging the fabric for
// the transfer), and each left partition probes it map-side. The output
// schema matches HashJoin's, JoinSchema(t's, right's). Correct only when the right side fits in
// memory — the query optimizer picks it when table statistics say a
// dimension is small.
func (t *Table) BroadcastJoin(right *Table, leftCol, rightCol string) (*Table, error) {
	plan, err := t.broadcastJoin(right, leftCol, rightCol, gather)
	if err != nil {
		return nil, err
	}
	return &Table{eng: t.eng, plan: plan, schema: JoinSchema(t.schema, right.schema)}, nil
}

// broadcastJoin builds and broadcasts right; out makes each left
// partition's row from the matches its probe finds, its row count standing
// in for theirs.
func (t *Table) broadcastJoin(right *Table, leftCol, rightCol string, out joinOut) (*core.Plan, error) {
	li, ri, err := joinCols(t.schema, right.schema, leftCol, rightCol)
	if err != nil {
		return nil, err
	}
	parts, err := right.run()
	if err != nil {
		return nil, err
	}
	// The build side: the right partitions' vectors end to end, each row
	// threaded onto its key's list in that order.
	build := &buildSide{rows: newBatch(right.schema, 0), index: colKeys{typ: t.schema.Cols[li].Type}}
	var size int64
	var scratch []byte
	for _, b := range parts {
		for k, v := range b.Cols {
			dst := &build.rows.Cols[k]
			dst.Ints, dst.Floats, dst.Strings = append(dst.Ints, v.Ints...), append(dst.Floats, v.Floats...), append(dst.Strings, v.Strings...)
		}
		build.rows.n += b.n
		for i := 0; i < b.n; i++ {
			g, added := build.index.id(&b.Cols[ri], i)
			if added {
				build.lists.grow(build.index.room())
			}
			build.lists.add(int(g))
			scratch = b.appendRow(scratch[:0], right.schema, i)
			size += int64(len(scratch))
		}
	}
	bcast := t.eng.Broadcast(build, size)

	schema := t.schema
	return t.eng.NewNarrow(t.plan, func(ctx *core.TaskContext, rows []core.Row) []core.Row {
		b, build := batchOf(schema, rows), bcast.Value().(*buildSide)
		return []core.Row{out(ctx, b, build.rows, b.n, func(yield func(l, r int32)) {
			for i := 0; i < b.n; i++ {
				if g, ok := build.index.find(&b.Cols[li], i); ok {
					for r := build.lists.head[g]; r >= 0; r = build.lists.next[r] {
						yield(int32(i), r)
					}
				}
			}
		})}
	}), nil
}

// buildSide is what a BroadcastJoin replicates: the right rows, the group
// number of each join key, and each group's rows.
type buildSide struct {
	rows  *Batch
	index colKeys
	lists chains
}

// OrderByCols globally sorts by the named columns in order: cols[0] is
// the primary key, later columns break ties. desc is per column (nil =
// all ascending). Concatenating the result's partitions in order yields
// the sorted relation. Because a full column list gives a total order
// over distinct rows, OrderByCols with every column listed is
// deterministic — the form the query layer uses. With more than one
// output partition a sampling job computes the input once to find the
// range split points before the shuffle computes it again; with one there
// are no split points to find, and the input is computed once.
func (t *Table) OrderByCols(cols []string, desc []bool, parts int) (*Table, error) {
	key, err := t.sortKey(cols, desc)
	if err != nil {
		return nil, err
	}
	if parts <= 0 {
		parts = t.Partitions()
	}
	return t.sortBy(key, parts)
}

// TopK returns the first k rows of the order OrderByCols(cols, desc, _)
// gives, in that order, in one partition. Each partition keeps its first k
// rows under the same composite key with a bounded max-heap, one sorted
// shuffle into a single partition orders those at most k × Partitions()
// candidates, and Head cuts them to k: no sampling job, and only the
// candidates cross the shuffle. Rows whose keys tie keep OrderByCols'
// relative order, input partition then input position.
func (t *Table) TopK(cols []string, desc []bool, k int) (*Table, error) {
	if k < 0 {
		return nil, fmt.Errorf("table: TopK(%d)", k)
	}
	key, err := t.sortKey(cols, desc)
	if err != nil {
		return nil, err
	}
	cand := t.derive(t.schema, func(_ *core.TaskContext, b *Batch) *Batch {
		if b.n <= k {
			return b
		}
		return &Batch{n: k, Cols: b.gather(firstK(b, k, key))}
	})
	sorted, err := cand.sortBy(key, 1)
	if err != nil {
		return nil, err
	}
	return sorted.Head(k)
}

// sortKey resolves an OrderByCols column list into the function that
// appends row i's composite sortable key: each listed column's
// appendSortableKey form in order, inverted where desc says.
func (t *Table) sortKey(cols []string, desc []bool) (func(dst []byte, b *Batch, i int) []byte, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("table: a sort needs at least one column")
	}
	if desc == nil {
		desc = make([]bool, len(cols))
	}
	if len(desc) != len(cols) {
		return nil, fmt.Errorf("table: a sort got %d desc flags for %d columns", len(desc), len(cols))
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, err := t.schema.MustIndex(c)
		if err != nil {
			return nil, err
		}
		idx[i] = j
	}
	schema := t.schema
	return func(dst []byte, b *Batch, i int) []byte {
		for k, j := range idx {
			dst = appendSortableKey(dst, schema.Cols[j].Type, &b.Cols[j], i, desc[k])
		}
		return dst
	}, nil
}

// sortBy range-shuffles t into parts partitions ordered by key, sampling
// the input for split points when there is more than one.
func (t *Table) sortBy(key func(dst []byte, b *Batch, i int) []byte, parts int) (*Table, error) {
	schema := t.schema
	var splits [][]byte
	if parts > 1 {
		sample := t.eng.NewNarrow(t.plan, func(_ *core.TaskContext, rows []core.Row) []core.Row {
			b := batchOf(schema, rows)
			stride := b.n/32 + 1
			var out []core.Row
			for i := 0; i < b.n; i += stride {
				out = append(out, key(nil, b, i))
			}
			return out
		})
		raw, err := t.eng.Collect(sample)
		if err != nil {
			return nil, err
		}
		keys := make([][]byte, len(raw))
		for i, r := range raw {
			keys[i] = r.([]byte)
		}
		splits = shuffle.SplitPoints(keys, parts)
	}
	rp := shuffle.NewRangePartitioner(splits)

	plan := t.eng.NewShuffled(t.plan, core.ShuffleDep{
		Partitions:  rp.Partitions(),
		Partitioner: rp.Partition,
		Sorted:      true,
		Emit: func(row core.Row, w shuffle.Writer) error {
			b := row.(*Batch)
			return shuffle.WriteRecords(w, b.n,
				func(dst []byte, i int) []byte { return key(dst, b, i) },
				func(dst []byte, i int) []byte { return b.appendRow(dst, schema, i) })
		},
		Post: func(_ *core.TaskContext, recs shuffle.Records) []core.Row {
			out := newBatch(schema, recs.Len())
			for r := 0; r < recs.Len(); r++ {
				if err := out.decodeRow(schema, recs.Value(r)); err != nil {
					panic(fmt.Sprintf("table: orderby decode: %v", err))
				}
			}
			return []core.Row{out}
		},
	})
	return &Table{eng: t.eng, plan: plan, schema: schema}, nil
}

// firstK returns, in ascending row order, the positions of b's first k
// rows (k < b.Len()) under key, ties going to the earlier row. A max-heap
// holds the k smallest (key, row) pairs seen so far; a later row enters
// only with a key below the root's, since its row number is larger.
func firstK(b *Batch, k int, key func(dst []byte, b *Batch, i int) []byte) []int32 {
	if k == 0 {
		return nil
	}
	type kept struct {
		key []byte
		row int32
	}
	greater := func(x, y *kept) bool {
		c := bytes.Compare(x.key, y.key)
		return c > 0 || c == 0 && x.row > y.row
	}
	h := make([]kept, k)
	for i := range h {
		h[i] = kept{key(nil, b, i), int32(i)}
		for j := i; j > 0 && greater(&h[j], &h[(j-1)/2]); j = (j - 1) / 2 {
			h[j], h[(j-1)/2] = h[(j-1)/2], h[j]
		}
	}
	var scratch []byte
	for i := k; i < b.n; i++ {
		scratch = key(scratch[:0], b, i)
		if bytes.Compare(scratch, h[0].key) >= 0 {
			continue
		}
		// Replace the root and sift it down; the old root's buffer takes
		// the new key, the scratch buffer keeps its own.
		h[0].key, h[0].row = append(h[0].key[:0], scratch...), int32(i)
		for j := 0; ; {
			c := 2*j + 1
			if c >= k {
				break
			}
			if c+1 < k && greater(&h[c+1], &h[c]) {
				c++
			}
			if !greater(&h[c], &h[j]) {
				break
			}
			h[j], h[c] = h[c], h[j]
			j = c
		}
	}
	rows := make([]int32, k)
	for i := range h {
		rows[i] = h[i].row
	}
	slices.Sort(rows)
	return rows
}

// Head keeps at most n rows per partition (the partition-local half of
// LIMIT: after an OrderByCols, partition k's first n rows are the only
// candidates for the global first n, so the driver truncates the
// concatenation). The output's vectors are prefixes of the input's.
func (t *Table) Head(n int) (*Table, error) {
	if n < 0 {
		return nil, fmt.Errorf("table: Head(%d)", n)
	}
	return t.derive(t.schema, func(_ *core.TaskContext, b *Batch) *Batch {
		if b.n <= n {
			return b
		}
		out := &Batch{n: n, Cols: make([]Vector, len(b.Cols))}
		for k, v := range b.Cols {
			out.Cols[k] = v.head(n)
		}
		return out
	}), nil
}

// Renamed returns the same relation with columns renamed per mapping
// (old name -> new name). Purely a schema change; no data moves.
func (t *Table) Renamed(mapping map[string]string) (*Table, error) {
	cols := append([]Col(nil), t.schema.Cols...)
	for old, new_ := range mapping {
		i := t.schema.Index(old)
		if i < 0 {
			return nil, fmt.Errorf("table: no column %q to rename", old)
		}
		cols[i].Name = new_
	}
	seen := map[string]bool{}
	for _, c := range cols {
		if seen[c.Name] {
			return nil, fmt.Errorf("table: rename collides on %q", c.Name)
		}
		seen[c.Name] = true
	}
	return &Table{eng: t.eng, plan: t.plan, schema: Schema{Cols: cols}}, nil
}
