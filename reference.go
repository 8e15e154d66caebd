package hpbdc

import "repro/internal/core"

// ReferenceCollect evaluates the dataset's plan with the sequential
// single-node reference oracle (core.Reference) and returns all elements
// in partition order, in a slice the caller owns. It shares the job
// spec — the functions captured in the plan, the typed layer's own emit
// and post functions (ReduceByKey's fold) included — with the
// distributed engine but none of its execution machinery (stages, tasks,
// shuffle writers, caching, recovery), so comparing it against Collect is
// a differential correctness test: see internal/check and DESIGN.md
// "Correctness checking".
//
// Record order matches CollectPartitions only where the engine
// guarantees one (sorted shuffles, narrow pipelines); compare unsorted
// shuffle output as a multiset.
func ReferenceCollect[T any](d *Dataset[T]) []T {
	return flatten[T](core.Reference(d.Plan()))
}

// ReferenceCollectPartitions is ReferenceCollect keeping the partition
// structure, aligned with CollectPartitions.
func ReferenceCollectPartitions[T any](d *Dataset[T]) [][]T {
	return copyPartitions[T](core.Reference(d.Plan()))
}
