package hpbdc

// Pins and ceilings for the typed layer's shuffle operators. The wire pins
// were recorded on the commit before the shuffle boundary took whole
// batches (one key and one value function call per row, a slice of records
// on the reduce side): what an operator writes, where each record lands
// and the order it comes back in are not allowed to move.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/rng"
)

// wirePin is what one job's map stages wrote and what its reduce side
// returned: rows per output partition, the shuffle counters and the
// fingerprint of the partitions in order.
type wirePin struct {
	sizes                  string
	records, wire, spilled int64
	print                  uint64
}

func wirePinOf[T any](t *testing.T, c *Context, d *Dataset[T]) wirePin {
	t.Helper()
	parts, err := d.CollectPartitions()
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, len(parts))
	for i, p := range parts {
		sizes[i] = len(p)
	}
	reg := c.Metrics()
	return wirePin{
		sizes:   fmt.Sprint(sizes),
		records: reg.Counter("shuffle_records_written").Value(),
		wire:    reg.Counter("shuffle_wire_bytes").Value(),
		spilled: reg.Counter("shuffle_spills").Value(),
		print:   fingerprint(parts),
	}
}

func checkWirePin(t *testing.T, got, want wirePin) {
	t.Helper()
	if got != want {
		t.Errorf("got  %#v\npinned %#v", got, want)
	}
}

// widePairs is partition part of a sort_wide-shaped input: n pairs of a
// 10-byte key and a 90-byte value.
func widePairs(part, n int) []Pair[string, string] {
	gen := rng.New(uint64(part) + 11)
	out := make([]Pair[string, string], n)
	for i := range out {
		out[i] = Pair[string, string]{
			Key:   fmt.Sprintf("%010d", gen.Int63n(1e10)),
			Value: fmt.Sprintf("%090d", gen.Int63n(1<<62)),
		}
	}
	return out
}

func TestSortByKeyWireIdentity(t *testing.T) {
	t.Run("lz, string pairs", func(t *testing.T) {
		c := New(Config{Racks: 2, NodesPerRack: 4, Seed: 42, ShuffleCodec: "lz"})
		src := SourceFunc(c, 6, func(part int) []Pair[string, string] { return widePairs(part, 3000+500*part) })
		sorted, err := SortByKey(src, StringCodec, StringCodec, 5, 64)
		if err != nil {
			t.Fatal(err)
		}
		checkWirePin(t, wirePinOf(t, c, sorted), wirePin{sizes: "[5456 4906 4372 5449 5317]", records: 25500, wire: 774839, spilled: 0, print: 0x9172cc5b1ccd88ab})
	})
	t.Run("numeric keys, duplicate keys keep arrival order", func(t *testing.T) {
		c := New(Config{Racks: 2, NodesPerRack: 4, Seed: 42})
		src := SourceFunc(c, 4, func(part int) []Pair[uint64, int64] {
			gen := rng.New(uint64(part) + 3)
			out := make([]Pair[uint64, int64], 2500)
			for i := range out {
				out[i] = Pair[uint64, int64]{uint64(gen.Intn(400)), int64(part*10000 + i)}
			}
			return out
		})
		sorted, err := SortByKey(src, Uint64SortableCodec, Int64Codec, 3, 32)
		if err != nil {
			t.Fatal(err)
		}
		checkWirePin(t, wirePinOf(t, c, sorted), wirePin{sizes: "[3332 3464 3204]", records: 10000, wire: 127436, spilled: 0, print: 0x4d83fa1961054038})
	})
	t.Run("past the spill threshold", func(t *testing.T) {
		// 50 000 records of 100 bytes in one map partition: the writer
		// seals a run at 4 MiB and merges two at close.
		c := New(Config{Racks: 1, NodesPerRack: 2, Seed: 42})
		src := SourceFunc(c, 1, func(part int) []Pair[string, string] { return widePairs(part, 50000) })
		sorted, err := SortByKey(src, StringCodec, StringCodec, 3, 64)
		if err != nil {
			t.Fatal(err)
		}
		checkWirePin(t, wirePinOf(t, c, sorted), wirePin{sizes: "[13959 17994 18047]", records: 50000, wire: 5100000, spilled: 1, print: 0x520164ffe2b873e2})
	})
}

// pinSource is the input the hash-shuffle pins share: 150 distinct keys
// over five partitions of different sizes.
func pinSource(c *Context) *Dataset[Pair[string, int64]] {
	return SourceFunc(c, 5, func(part int) []Pair[string, int64] {
		gen := rng.New(uint64(part) + 7)
		out := make([]Pair[string, int64], 400+100*part)
		for i := range out {
			out[i] = Pair[string, int64]{fmt.Sprintf("k%03d", gen.Intn(150)), gen.Int63n(1000)}
		}
		return out
	})
}

func TestGroupByKeyWireIdentity(t *testing.T) {
	c := New(Config{Racks: 2, NodesPerRack: 4, Seed: 42, ShuffleCodec: "lz"})
	checkWirePin(t, wirePinOf(t, c, GroupByKey(pinSource(c), StringCodec, Int64Codec, 3)), wirePin{sizes: "[46 49 55]", records: 3000, wire: 21909, spilled: 0, print: 0xdf56eaeb537c589b})
}

func TestJoinWireIdentity(t *testing.T) {
	c := New(Config{Racks: 2, NodesPerRack: 4, Seed: 42, ShuffleCodec: "lz"})
	src := pinSource(c)
	other := MapValues(src.Filter(func(p Pair[string, int64]) bool { return p.Value%9 == 0 }),
		func(v int64) string { return fmt.Sprint(v) })
	checkWirePin(t, wirePinOf(t, c, Join(src, other, StringCodec, Int64Codec, StringCodec, 3)), wirePin{sizes: "[1882 2309 2678]", records: 3321, wire: 26929, spilled: 0, print: 0x98256e0df06019ce})
}

func TestDistinctWireIdentity(t *testing.T) {
	c := New(Config{Racks: 2, NodesPerRack: 4, Seed: 42, ShuffleCodec: "lz"})
	checkWirePin(t, wirePinOf(t, c, Distinct(Keys(pinSource(c)), StringCodec, 3)), wirePin{sizes: "[46 49 55]", records: 729, wire: 3797, spilled: 0, print: 0xe2dc6f955b04befa})
	c = New(Config{Racks: 2, NodesPerRack: 4, Seed: 42})
	ints := Map(pinSource(c), func(p Pair[string, int64]) int64 { return p.Value % 300 })
	checkWirePin(t, wirePinOf(t, c, Distinct(ints, Int64Codec, 4)), wirePin{sizes: "[64 85 64 86]", records: 1269, wire: 4795, spilled: 0, print: 0xdfdc59e18397f480})
}

func TestRepartitionWireIdentity(t *testing.T) {
	c := New(Config{Racks: 2, NodesPerRack: 4, Seed: 42, ShuffleCodec: "lz"})
	checkWirePin(t, wirePinOf(t, c, Repartition(Keys(pinSource(c)), StringCodec, 6)), wirePin{sizes: "[482 493 516 522 502 485]", records: 3000, wire: 27372, spilled: 0, print: 0x5bb68b05747d841b})
}

// allocsPerRecord runs job three times and returns its allocations per
// input record.
func allocsPerRecord(t *testing.T, records int, job func() error) float64 {
	t.Helper()
	var err error
	per := testing.AllocsPerRun(3, func() {
		if e := job(); e != nil {
			err = e
		}
	}) / float64(records)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.4f allocations per record", per)
	return per
}

// bytesPerRecord runs job three times and returns the bytes it allocates
// per input record.
func bytesPerRecord(t *testing.T, records int, job func() error) float64 {
	t.Helper()
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if err := job(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(records)
	t.Logf("%.1f bytes per record", per)
	return per
}

// TestSortByKeyAllocBudget: a sort of string pairs allocates per task, per
// block and per partition, not per record — encoding goes through reused
// scratch, the writer keeps keys and frames values straight from the
// batch, and decoded strings are the reduce side's decompressed bytes,
// not copies. The per-row contract spent about four allocations on every
// record. In bytes it reads 280.9 per 100-byte record, budget 295 (+5 %);
// copying every decoded string into an arena per reduce partition read
// 378.7.
func TestSortByKeyAllocBudget(t *testing.T) {
	const records, parts = 100000, 8
	data := make([][]Pair[string, string], parts)
	for p := range data {
		data[p] = widePairs(p, records/parts)
	}
	c := New(Config{Racks: 2, NodesPerRack: 4, ShuffleCodec: "lz"})
	src := SourceFunc(c, parts, func(p int) []Pair[string, string] { return data[p] })
	job := func() error {
		sorted, err := SortByKey(src, StringCodec, StringCodec, parts, 128)
		if err != nil {
			return err
		}
		n, err := sorted.Count()
		if err == nil && n != records {
			err = fmt.Errorf("%d records", n)
		}
		return err
	}
	if per := allocsPerRecord(t, records, job); per > 0.1 {
		t.Errorf("%.3f allocations per record, budget 0.1", per)
	}
	if per := bytesPerRecord(t, records, job); per > 295 && !raceBuild {
		t.Errorf("%.1f bytes per record, budget 295", per)
	}
}

// TestReduceByKeyAllocBudget: with 1000 distinct keys in 100 000 pairs the
// fold's slots, the encoded records and the reduce side's groups are all
// per key, so a job stays far below one allocation per pair.
func TestReduceByKeyAllocBudget(t *testing.T) {
	const records, keys, parts = 100000, 1000, 8
	data := make([][]Pair[string, int64], parts)
	for p := range data {
		data[p] = make([]Pair[string, int64], records/parts)
		for i := range data[p] {
			data[p][i] = Pair[string, int64]{fmt.Sprintf("key-%04d", (p+i*7)%keys), int64(i)}
		}
	}
	c := New(Config{Racks: 2, NodesPerRack: 4})
	src := SourceFunc(c, parts, func(p int) []Pair[string, int64] { return data[p] })
	per := allocsPerRecord(t, records, func() error {
		got, err := ReduceByKey(src, StringCodec, Int64Codec, 4, func(a, b int64) int64 { return a + b }).Collect()
		if err == nil && len(got) != keys {
			err = fmt.Errorf("%d keys", len(got))
		}
		return err
	})
	if per > 0.1 {
		t.Errorf("%.3f allocations per record, budget 0.1", per)
	}
}

// TestFloatKeyWireIdentity pins the map-side fold's == semantics for float
// keys: +0 and -0 fold together under whichever arrived first, and every
// NaN is a key of its own. The pins were recorded before the fold moved off
// a Go map.
func TestFloatKeyWireIdentity(t *testing.T) {
	edge := []float64{0, math.Copysign(0, -1), math.NaN(), 1, math.NaN(), math.Copysign(0, -1), math.NaN(), 1}
	source := func(c *Context) *Dataset[float64] {
		return SourceFunc(c, 2, func(part int) []float64 {
			out := slices.Clone(edge)
			if part == 1 {
				slices.Reverse(out)
			}
			return out
		})
	}
	c := New(Config{Racks: 1, NodesPerRack: 2, Seed: 42})
	pairs := Map(source(c), func(f float64) Pair[float64, int64] { return Pair[float64, int64]{f, 1} })
	checkWirePin(t, wirePinOf(t, c, ReduceByKey(pairs, Float64Codec, Int64Codec, 2, func(a, b int64) int64 { return a + b })), wirePin{sizes: "[1 3]", records: 10, wire: 110, spilled: 0, print: 0x3178eadb4ab07ab2})
	c = New(Config{Racks: 1, NodesPerRack: 2, Seed: 42})
	checkWirePin(t, wirePinOf(t, c, Distinct(source(c), Float64Codec, 2)), wirePin{sizes: "[1 3]", records: 10, wire: 100, spilled: 0, print: 0x3cd1f1fbded41be0})
}
