package table

import (
	"cmp"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/serde"
)

// ColumnarTable is a relation stored column-encoded: each partition
// holds one adaptively encoded chunk per column (dictionary, RLE,
// bit-packed or fixed-width; see internal/serde) plus a zone map
// (per-column min/max). It is the storage format the query layer's
// predicate and projection pushdown compile onto: a scan can prune whole
// partitions from the zone map before touching a byte, filter predicate
// columns against their encoded form (one predicate evaluation per RLE
// run or dictionary entry), and decode only the selected positions of
// only the needed columns.
type ColumnarTable struct {
	schema Schema
	parts  []colPart
}

type colPart struct {
	rows int
	cols [][]byte // encoded chunk per schema column
	mins []any    // zone map; nil for a column with no ordered value (see zone)
	maxs []any
}

// BuildColumnar validates rows against the schema and encodes them into
// parts round-robin partitions of column chunks.
func BuildColumnar(schema Schema, rows []Row, parts int) (*ColumnarTable, error) {
	if len(schema.Cols) == 0 {
		return nil, errors.New("table: empty schema")
	}
	if parts <= 0 {
		parts = 4
	}
	for i, r := range rows {
		if err := schema.validate(r); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	ct := &ColumnarTable{schema: schema, parts: make([]colPart, parts)}
	for p := range ct.parts {
		b := batchFromRows(schema, rows, p, parts)
		cp := colPart{
			rows: b.n,
			cols: make([][]byte, len(schema.Cols)),
			mins: make([]any, len(schema.Cols)),
			maxs: make([]any, len(schema.Cols)),
		}
		for c, col := range schema.Cols {
			switch v := b.Cols[c]; col.Type {
			case Int64:
				cp.cols[c] = serde.IntColumn(v.Ints).Encode()
				cp.mins[c], cp.maxs[c] = zone(v.Ints)
			case Float64:
				cp.cols[c] = serde.FloatColumn(v.Floats).Encode()
				cp.mins[c], cp.maxs[c] = zone(v.Floats)
			case String:
				cp.cols[c] = serde.StringColumn(v.Strings).Encode()
				cp.mins[c], cp.maxs[c] = zone(v.Strings)
			}
		}
		ct.parts[p] = cp
	}
	return ct, nil
}

// zone returns a chunk's zone-map entry: the least and greatest of its
// values that order at all. NaN compares false with everything, so no
// range predicate keeps it and it stays out of the range; a chunk with
// nothing else (or nothing) has no entry, nil.
func zone[T cmp.Ordered](vals []T) (least, greatest any) {
	var mn, mx T
	seen := false
	for _, v := range vals {
		if v != v {
			continue
		}
		if !seen || v < mn {
			mn = v
		}
		if !seen || v > mx {
			mx = v
		}
		seen = true
	}
	if !seen {
		return nil, nil
	}
	return mn, mx
}

// Partitions returns the partition count.
func (c *ColumnarTable) Partitions() int { return len(c.parts) }

// ColPredicate is one pushed-down single-column predicate.
type ColPredicate struct {
	// Col is the schema column index the predicate reads.
	Col int
	// Keep reports whether a value passes: a func(int64) bool,
	// func(float64) bool or func(string) bool, per the column's type, so
	// evaluating it boxes nothing. Required.
	Keep any
	// SkipAll optionally reports, from the partition's zone map, that no
	// value in [min, max] can pass — the whole partition is then pruned
	// without decoding anything. Nil when the predicate has no usable
	// range form.
	SkipAll func(min, max any) bool
}

// Scan counter names recorded against the registry passed to Scan (the
// query layer surfaces them through internal/obs):
//
//	sql_rows_scanned   rows in partitions that survived zone pruning
//	sql_rows_pruned    rows skipped wholesale by zone maps
//	sql_rows_out       rows emitted after pushed predicates
//	sql_bytes_decoded  encoded bytes of chunks actually decoded
//	sql_bytes_skipped  encoded bytes of chunks never decoded
//	sql_pred_evals     predicate evaluations actually run (RLE runs /
//	                   dictionary entries, not rows)
const (
	CtrRowsScanned  = "sql_rows_scanned"
	CtrRowsPruned   = "sql_rows_pruned"
	CtrRowsOut      = "sql_rows_out"
	CtrBytesDecoded = "sql_bytes_decoded"
	CtrBytesSkipped = "sql_bytes_skipped"
	CtrPredEvals    = "sql_pred_evals"
)

// Scan builds a lazy Table over the columnar data. preds are pushed
// predicates ANDed together; needed lists the schema column indexes the
// output rows carry, in output order (nil = all columns). Chunk decode
// effort and zone-map pruning are recorded on reg (nil-safe).
func (c *ColumnarTable) Scan(eng *core.Engine, preds []ColPredicate, needed []int, reg *metrics.Registry) (*Table, error) {
	if needed == nil {
		needed = make([]int, len(c.schema.Cols))
		for i := range needed {
			needed[i] = i
		}
	}
	outCols := make([]Col, len(needed))
	for i, idx := range needed {
		if idx < 0 || idx >= len(c.schema.Cols) {
			return nil, fmt.Errorf("table: scan column index %d out of range", idx)
		}
		outCols[i] = c.schema.Cols[idx]
	}
	for _, p := range preds {
		if p.Col < 0 || p.Col >= len(c.schema.Cols) {
			return nil, fmt.Errorf("table: predicate column index %d out of range", p.Col)
		}
		ok := false
		switch c.schema.Cols[p.Col].Type {
		case Int64:
			_, ok = p.Keep.(func(int64) bool)
		case Float64:
			_, ok = p.Keep.(func(float64) bool)
		default:
			_, ok = p.Keep.(func(string) bool)
		}
		if !ok {
			return nil, fmt.Errorf("table: ColPredicate.Keep on %v column %d is a %T", c.schema.Cols[p.Col].Type, p.Col, p.Keep)
		}
	}
	var (
		rowsScanned, rowsPruned, rowsOut  *metrics.Counter
		bytesDecoded, bytesSkip, predEval *metrics.Counter
	)
	if reg != nil {
		rowsScanned = reg.Counter(CtrRowsScanned)
		rowsPruned = reg.Counter(CtrRowsPruned)
		rowsOut = reg.Counter(CtrRowsOut)
		bytesDecoded = reg.Counter(CtrBytesDecoded)
		bytesSkip = reg.Counter(CtrBytesSkipped)
		predEval = reg.Counter(CtrPredEvals)
	}
	schema, outSchema := c.schema, Schema{Cols: outCols}
	parts := c.parts
	return fromBatches(eng, outSchema, len(parts), func(part int) *Batch {
		cp := parts[part]
		out := &Batch{Cols: make([]Vector, len(needed))}
		if cp.rows == 0 {
			return out
		}
		// Zone-map pruning: any pushed predicate proving the partition
		// empty skips every chunk in it.
		for _, p := range preds {
			if p.SkipAll != nil && cp.mins[p.Col] != nil && p.SkipAll(cp.mins[p.Col], cp.maxs[p.Col]) {
				rowsPruned.Add(int64(cp.rows))
				for _, col := range cp.cols {
					bytesSkip.Add(int64(len(col)))
				}
				return out
			}
		}
		rowsScanned.Add(int64(cp.rows))

		// Filter pass over the predicate columns' encoded chunks; a nil sel
		// selects every row.
		touched := make([]bool, len(cp.cols))
		var sel []bool
		for _, p := range preds {
			var (
				psel []bool
				st   serde.FilterStats
				err  error
			)
			switch keep := p.Keep.(type) {
			case func(int64) bool:
				psel, st, err = serde.FilterIntColumn(cp.cols[p.Col], keep)
			case func(float64) bool:
				psel, st, err = serde.FilterFloatColumn(cp.cols[p.Col], keep)
			case func(string) bool:
				psel, st, err = serde.FilterStringColumn(cp.cols[p.Col], keep)
			}
			if err != nil {
				panic(fmt.Sprintf("table: columnar filter: %v", err))
			}
			if !touched[p.Col] {
				touched[p.Col] = true
				bytesDecoded.Add(int64(len(cp.cols[p.Col])))
			}
			predEval.Add(int64(st.PredEvals))
			if sel == nil {
				sel = psel
			} else {
				for i := range sel {
					sel[i] = sel[i] && psel[i]
				}
			}
		}
		out.n = cp.rows
		if sel != nil {
			out.n = 0
			for _, s := range sel {
				if s {
					out.n++
				}
			}
		}
		rowsOut.Add(int64(out.n))

		// Decode pass: only needed columns, only selected positions, each
		// typed column straight into its vector.
		for k, idx := range needed {
			chunk := cp.cols[idx]
			if !touched[idx] {
				touched[idx] = true
				if out.n == 0 {
					bytesSkip.Add(int64(len(chunk)))
				} else {
					bytesDecoded.Add(int64(len(chunk)))
				}
			}
			if out.n == 0 {
				continue
			}
			v, err := &out.Cols[k], error(nil)
			switch schema.Cols[idx].Type {
			case Int64:
				v.Ints, err = serde.SelectIntColumn(chunk, sel)
			case Float64:
				v.Floats, err = serde.SelectFloatColumn(chunk, sel)
			case String:
				v.Strings, err = serde.SelectStringColumn(chunk, sel)
			}
			if err != nil {
				panic(fmt.Sprintf("table: columnar decode: %v", err))
			}
		}
		// Untouched columns were neither filtered nor needed.
		for i, col := range cp.cols {
			if !touched[i] {
				bytesSkip.Add(int64(len(col)))
			}
		}
		return out
	}), nil
}
