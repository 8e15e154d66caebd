// Stable-sort-and-concat reference for the shuffle subsystem. The real
// writers buffer, combine, spill, compress and merge; the reference
// routes each input record to its partition in input order and, for
// sorted shuffles, stable-sorts each partition by key. Sorted output
// must match record for record; unsorted output must match as a
// multiset (block fetch order and map-side combining legitimately
// permute it).
package check

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/shuffle"
)

// ReferenceShuffle computes the expected reduce-side partitions for the
// given per-map-task inputs. partitioner may be nil for the default
// hash partitioner.
func ReferenceShuffle(inputs [][]shuffle.Record, partitions int, partitioner func([]byte) int, sorted bool) [][]shuffle.Record {
	if partitioner == nil {
		partitioner = func(key []byte) int { return shuffle.Partition(key, partitions) }
	}
	out := make([][]shuffle.Record, partitions)
	for _, task := range inputs {
		for _, rec := range task {
			p := partitioner(rec.Key)
			out[p] = append(out[p], rec)
		}
	}
	if sorted {
		for i := range out {
			recs := out[i]
			sort.SliceStable(recs, func(a, b int) bool {
				return bytes.Compare(recs[a].Key, recs[b].Key) < 0
			})
		}
	}
	return out
}

// DiffShuffle compares the records actually read per reduce partition
// against the reference. Sorted shuffles compare in order; unsorted
// compare as multisets.
func DiffShuffle(name string, got [][]shuffle.Record, inputs [][]shuffle.Record, partitions int, partitioner func([]byte) int, sorted bool) Diff {
	want := ReferenceShuffle(inputs, partitions, partitioner, sorted)
	total := Diff{Name: name, OK: true}
	if len(got) != len(want) {
		total.OK = false
		total.Details = append(total.Details, fmt.Sprintf("partition count %d vs %d", len(got), len(want)))
		return total
	}
	// Raw bytes, quoted once by the Diff; the key's length in front keeps
	// the encoding injective.
	enc := func(r shuffle.Record) string { return fmt.Sprintf("%d:%s=%s", len(r.Key), r.Key, r.Value) }
	for p := range got {
		var d Diff
		sub := fmt.Sprintf("%s[p%d]", name, p)
		if sorted {
			d = DiffOrdered(sub, got[p], want[p], enc)
		} else {
			d = DiffMultiset(sub, got[p], want[p], enc)
		}
		total.Compared += d.Compared
		if !d.OK {
			total.OK = false
			total.Details = append(total.Details, d.Details...)
		}
	}
	if len(total.Details) > maxDetails {
		total.Details = total.Details[:maxDetails]
	}
	return total
}
