package hpbdc_test

// One benchmark per experiment in the reconstructed evaluation suite
// (DESIGN.md, E1..E12). Each iteration runs the experiment end to end at
// CI scale and reports its headline metric; `go run ./cmd/hpbdc-bench`
// prints the full tables at paper scale.

import (
	"strconv"
	"strings"
	"testing"

	hpbdc "repro"
	"repro/internal/experiments"
	"repro/internal/rng"
)

// runExperiment drives one experiment per b.N iteration and sanity-checks
// that it produced a table.
func runExperiment(b *testing.B, fn func(experiments.Params) *experiments.Table) *experiments.Table {
	b.Helper()
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		last = fn(experiments.Params{})
		if len(last.Rows) == 0 {
			b.Fatalf("%s produced no rows", last.ID)
		}
	}
	return last
}

// cell parses a numeric table cell like "123", "1.50x" or "95%".
func cell(t *experiments.Table, row, col int) float64 {
	s := t.Rows[row][col]
	s = strings.TrimSuffix(strings.TrimSuffix(s, "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return v
}

func BenchmarkE1Transport(b *testing.B) {
	t := runExperiment(b, experiments.E1Transport)
	// Shape check: TCP/RDMA latency ratio at the smallest message >= 5x.
	if r := cell(t, 0, len(t.Cols)-1); r < 5 {
		b.Fatalf("E1 small-message tcp/rdma ratio = %v, want >= 5", r)
	}
	b.ReportMetric(cell(t, 0, len(t.Cols)-1), "tcp/rdma-64B")
}

func BenchmarkE2Shuffle(b *testing.B) {
	t := runExperiment(b, experiments.E2Shuffle)
	b.ReportMetric(cell(t, 0, 5), "hash-none-MB/s")
	b.ReportMetric(cell(t, 2, 5), "sort-none-MB/s")
}

func BenchmarkE3TeraSort(b *testing.B) {
	t := runExperiment(b, experiments.E3TeraSort)
	b.ReportMetric(cell(t, 0, 4), "rec/s-2nodes")
	b.ReportMetric(cell(t, len(t.Rows)-1, 4), "rec/s-16nodes")
}

func BenchmarkE4WordCount(b *testing.B) {
	t := runExperiment(b, experiments.E4WordCount)
	// Dataflow must not lose to the materializing baseline (at CI scale
	// the gap is small; the full-scale table shows the real margin).
	if sp := cell(t, 1, 4); sp > 1.1 {
		b.Fatalf("E4 dataflow/mapreduce ratio = %v, want <= 1.1", sp)
	}
	b.ReportMetric(cell(t, 1, 4), "dataflow/mapreduce")
}

func BenchmarkE5KVQuorum(b *testing.B) {
	t := runExperiment(b, experiments.E5KVQuorum)
	b.ReportMetric(cell(t, 0, 3), "R1W1-ops/s")
	b.ReportMetric(cell(t, 4, 3), "R2W2-ops/s")
}

func BenchmarkE6Scheduler(b *testing.B) {
	t := runExperiment(b, experiments.E6Scheduler)
	// Delay scheduling must achieve the best locality.
	delayLoc := cell(t, 3, 4)
	fairLoc := cell(t, 1, 4)
	if delayLoc <= fairLoc {
		b.Fatalf("E6 delay locality %v%% <= fair %v%%", delayLoc, fairLoc)
	}
	b.ReportMetric(delayLoc, "delay-locality-%")
}

func BenchmarkE7Stream(b *testing.B) {
	t := runExperiment(b, experiments.E7Stream)
	b.ReportMetric(float64(len(t.Rows)), "load-points")
}

func BenchmarkE8PageRank(b *testing.B) {
	t := runExperiment(b, experiments.E8PageRank)
	// Modeled speedup must rise with workers (even if sublinear), and
	// hashed partitioning must beat contiguous at 8 workers.
	if s8, s1 := cell(t, 3, 3), cell(t, 0, 3); s8 <= s1 {
		b.Fatalf("E8 speedup did not grow: %v vs %v", s8, s1)
	}
	if hashed, contig := cell(t, 7, 3), cell(t, 3, 3); hashed <= contig {
		b.Fatalf("E8 hashed speedup %v <= contiguous %v", hashed, contig)
	}
	b.ReportMetric(cell(t, 7, 3), "speedup-8w-hashed")
}

func BenchmarkE9Recovery(b *testing.B) {
	t := runExperiment(b, experiments.E9Recovery)
	// Checkpoint restore must rerun fewer tasks than lineage recovery.
	if ck, lin := cell(t, 1, 3), cell(t, 0, 3); ck >= lin {
		b.Fatalf("E9 checkpoint reran %v tasks vs lineage %v", ck, lin)
	}
	b.ReportMetric(cell(t, 0, 3), "lineage-tasks-rerun")
}

func BenchmarkE10ParamServer(b *testing.B) {
	t := runExperiment(b, experiments.E10ParamServer)
	b.ReportMetric(cell(t, 0, 4), "bsp-accuracy")
	b.ReportMetric(cell(t, 1, 4), "asp-accuracy")
}

func BenchmarkE11Autoscale(b *testing.B) {
	t := runExperiment(b, experiments.E11Autoscale)
	// Autoscaler cost must undercut peak-static.
	if auto, static := cell(t, 2, 1), cell(t, 0, 1); auto >= static {
		b.Fatalf("E11 autoscaler cost %v >= peak-static %v", auto, static)
	}
	b.ReportMetric(cell(t, 2, 1), "autoscaler-node-steps")
}

func BenchmarkE12Raft(b *testing.B) {
	t := runExperiment(b, experiments.E12Raft)
	b.ReportMetric(cell(t, 0, 4), "3node-proposals/s")
}

func BenchmarkESFTStream(b *testing.B) {
	t := runExperiment(b, experiments.ESFTStream)
	// The exactly-once claim holds in every sweep cell.
	for i := range t.Rows {
		if t.Rows[i][len(t.Cols)-1] != "yes" {
			b.Fatalf("E-SFT row %d: faulted output diverged from clean run", i)
		}
	}
	b.ReportMetric(cell(t, 4, 6), "replayed-ckpt-1crash")
}

// The three typed-layer benchmarks below are shaped like the repository
// benchmark's agg_combine workload, its core.row_box_ns_per_rec probe and
// its sort_wide workload (bench/README.md), at a tenth of their size.

func benchCtx(codec string) *hpbdc.Context {
	return hpbdc.New(hpbdc.Config{Racks: 2, NodesPerRack: 4, SlotsPerNode: 2, ShuffleCodec: codec, Seed: 42})
}

// benchTokens is 8 partitions of random tokens, n in all.
func benchTokens(n int) [][]int64 {
	gen := rng.New(42)
	parts := make([][]int64, 8)
	for p := range parts {
		parts[p] = make([]int64, n/len(parts))
		for i := range parts[p] {
			parts[p][i] = gen.Int63()
		}
	}
	return parts
}

func BenchmarkReduceByKey(b *testing.B) {
	const tokens, keys = 200000, 5000
	in := benchTokens(tokens)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := hpbdc.SourceFunc(benchCtx("none"), len(in), func(part int) []int64 { return in[part] })
		pairs := hpbdc.Map(src, func(tok int64) hpbdc.Pair[int64, int64] {
			return hpbdc.Pair[int64, int64]{Key: tok % keys, Value: 1}
		})
		out, err := hpbdc.ReduceByKey(pairs, hpbdc.Int64Codec, hpbdc.Int64Codec, 4,
			func(a, b int64) int64 { return a + b }).Collect()
		if err != nil || len(out) != keys {
			b.Fatalf("%d keys, %v", len(out), err)
		}
	}
	b.ReportMetric(float64(tokens)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
}

func BenchmarkMapCount(b *testing.B) {
	const tokens = 200000
	in := benchTokens(tokens)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := hpbdc.SourceFunc(benchCtx("none"), len(in), func(part int) []int64 { return in[part] })
		n, err := hpbdc.Map(src, func(v int64) int64 { return v }).Count()
		if err != nil || n != tokens {
			b.Fatalf("count %d, %v", n, err)
		}
	}
	b.ReportMetric(float64(tokens)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
}

func BenchmarkSortByKey(b *testing.B) {
	const records = 20000
	type rec = hpbdc.Pair[string, string]
	gen := rng.New(42)
	in := make([][]rec, 8)
	for p := range in {
		in[p] = make([]rec, records/len(in))
		for i := range in[p] {
			key := make([]byte, 10)
			gen.Bytes(key)
			in[p][i] = rec{Key: string(key), Value: strings.Repeat("v", 90)}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := hpbdc.SourceFunc(benchCtx("lz"), len(in), func(part int) []rec { return in[part] })
		sorted, err := hpbdc.SortByKey(src, hpbdc.StringCodec, hpbdc.StringCodec, 8, 128)
		if err != nil {
			b.Fatal(err)
		}
		out, err := sorted.CollectPartitions()
		if err != nil || len(out) != 8 {
			b.Fatalf("%d partitions, %v", len(out), err)
		}
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
}
