//go:build !race

// The race detector changes what escapes to the heap, so the ceiling here
// holds only in a plain build.

package hpbdc

import (
	"math"
	"runtime"
	"testing"
)

// mapReduceCeiling pins, in bytes per input element, what a SourceFunc →
// Map → ReduceByKey → Collect job over 400 000 int64 tokens in 8 map
// partitions and 10 000 keys allocates. It reads 42.73: the map sides'
// key tables and blocks, the reduce sides' tables and the result. Building
// the Map step's []Pair batch per partition, as before Map handed its
// consumer a stream, reads 58.78 (16 bytes a pair more). The ceiling is
// the measured value plus 5 %.
const mapReduceCeiling = 44.9

func TestMapReduceByKeyByteCeiling(t *testing.T) {
	const tokens, keys, parts = 400_000, 10_000, 8
	data := make([][]int64, parts)
	for p := range data {
		data[p] = seq(int64(p*tokens/parts), tokens/parts)
	}
	c := New(Config{Racks: 2, NodesPerRack: 4})
	run := func() { // a new plan each time: a finished map stage is not run again
		src := SourceFunc(c, parts, func(p int) []int64 { return data[p] })
		pairs := Map(src, func(tok int64) Pair[int64, int64] { return Pair[int64, int64]{Key: tok % keys, Value: 1} })
		counts := ReduceByKey(pairs, Int64Codec, Int64Codec, 4, func(a, b int64) int64 { return a + b })
		got, err := counts.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != keys {
			t.Fatalf("%d keys, want %d", len(got), keys)
		}
	}
	run()
	per := math.Inf(1) // the least of five runs: a collection may land in any one
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		per = min(per, float64(after.TotalAlloc-before.TotalAlloc)/tokens)
	}
	t.Logf("%.2f bytes per element", per)
	if per > mapReduceCeiling {
		t.Errorf("%.2f bytes per element, ceiling %.1f", per, mapReduceCeiling)
	}
}
