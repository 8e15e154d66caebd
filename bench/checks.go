package main

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The output checkers. Each compares what the program returned with what
// the harness knows the answer to be, and is a plain function so the
// tests can hand it a deliberately corrupted output.

// checkSorted verifies sort_wide output: record count, global key order
// across the concatenated partitions, and the order-independent multiset
// hash of the input records.
func checkSorted(out [][]sortRec, wantN int, wantSum uint64) error {
	n, prev := 0, ""
	var sum uint64
	for p, part := range out {
		for i, rec := range part {
			if rec.Key < prev {
				return fmt.Errorf("sort_wide: partition %d record %d breaks the global order", p, i)
			}
			prev = rec.Key
			sum += recHash(rec.Key, rec.Value)
			n++
		}
	}
	if n != wantN {
		return fmt.Errorf("sort_wide: %d records out, %d in", n, wantN)
	}
	if sum != wantSum {
		return fmt.Errorf("sort_wide: output is not a permutation of the input (multiset hash %x, want %x)", sum, wantSum)
	}
	return nil
}

// checkCounts verifies agg_combine output against the per-key counts of a
// sequential pass over the same tokens.
func checkCounts(got []aggPair, want []int64) error {
	seen := make([]bool, len(want))
	for _, p := range got {
		if p.Key < 0 || p.Key >= int64(len(want)) {
			return fmt.Errorf("agg_combine: key %d out of range", p.Key)
		}
		if seen[p.Key] {
			return fmt.Errorf("agg_combine: key %d appears twice", p.Key)
		}
		seen[p.Key] = true
		if p.Value != want[p.Key] {
			return fmt.Errorf("agg_combine: key %d counted %d, want %d", p.Key, p.Value, want[p.Key])
		}
	}
	for k, w := range want {
		if w != 0 && !seen[k] {
			return fmt.Errorf("agg_combine: key %d missing (want %d)", k, w)
		}
	}
	return nil
}

// formatRow renders a row canonically: floats by shortest round-trip, so
// only bit-identical values collide.
func formatRow(r []any) string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte('|')
		}
		switch x := v.(type) {
		case int64:
			b.WriteString(strconv.FormatInt(x, 10))
		case float64:
			b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		case string:
			b.WriteString(strconv.Quote(x))
		default:
			fmt.Fprintf(&b, "%v", x)
		}
	}
	return b.String()
}

// rowsChecksum folds a result set: in order when the query defines one, as
// a multiset otherwise.
func rowsChecksum(rows [][]any, ordered bool) uint64 {
	enc := make([]string, len(rows))
	for i, r := range rows {
		enc[i] = formatRow(r)
	}
	if !ordered {
		sort.Strings(enc)
	}
	f := newFingerprint()
	f.u64(uint64(len(enc)))
	for _, e := range enc {
		f.str(e)
		f.str(";")
	}
	return f.h
}

// checkRows compares a query's rows with the reference rows.
func checkRows(query int, got, want [][]any, ordered bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("sql_star: q%d returned %d rows, reference %d", query+1, len(got), len(want))
	}
	if rowsChecksum(got, ordered) != rowsChecksum(want, ordered) {
		return fmt.Errorf("sql_star: q%d rows differ from the reference", query+1)
	}
	return nil
}

// checkWindows verifies stream_window output against a sequential
// per-(window, key) sum and count over events [0, events) of the same
// source. It returns how many panes are wrong or missing.
func checkWindows(results []streamResult, seed uint64, events int64) (bad int64, first error) {
	if events == 0 {
		return 0, nil
	}
	windows := int((events*streamStepNs+streamJitterNs)/streamWindowNs) + 1
	sums := make([]float64, windows*streamKeys)
	counts := make([]int64, windows*streamKeys)
	for i := int64(0); i < events; i++ {
		k, v, t := streamEventAt(seed, i)
		slot := int(t/streamWindowNs)*streamKeys + k
		sums[slot] += v
		counts[slot]++
	}
	note := func(err error) {
		bad++
		if first == nil {
			first = err
		}
	}
	for _, r := range results {
		w := int(int64(r.WindowStart) / streamWindowNs)
		k, err := strconv.Atoi(strings.TrimPrefix(r.Key, "k"))
		if err != nil || k < 0 || k >= streamKeys || w < 0 || w >= windows || int64(r.WindowStart)%streamWindowNs != 0 {
			note(fmt.Errorf("stream_window: unexpected pane (%v, %q)", r.WindowStart, r.Key))
			continue
		}
		slot := w*streamKeys + k
		if r.Sum != sums[slot] || r.Count != counts[slot] {
			note(fmt.Errorf("stream_window: pane (%v, %s) = sum %v count %d, want sum %v count %d",
				r.WindowStart, r.Key, r.Sum, r.Count, sums[slot], counts[slot]))
		}
		counts[slot] = 0 // seen
	}
	for slot, c := range counts {
		if c != 0 {
			note(fmt.Errorf("stream_window: pane (window %d, k%03d) missing", slot/streamKeys, slot%streamKeys))
		}
	}
	return bad, first
}

// checkRead compares one read with the driver's shadow copy; a nil want
// means the key must be absent.
func checkRead(got, want []byte) bool { return bytes.Equal(got, want) && (got == nil) == (want == nil) }
