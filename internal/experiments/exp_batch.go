package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	hpbdc "repro"
	"repro/internal/check"
	"repro/internal/compress"
	"repro/internal/shuffle"
	"repro/internal/topology"
	"repro/internal/workload"
)

// E2Shuffle compares hash vs sort shuffle writers across codecs and spill
// regimes: write+read throughput, wire bytes, spill counts.
func E2Shuffle(p Params) *Table {
	t := &Table{
		ID:    "E2",
		Title: "Shuffle throughput: hash vs sort writer, by codec and spill regime",
		Note:  "single map task, 16 reduce partitions, ~70-byte log records",
		Cols:  []string{"writer", "codec", "records", "spills", "wire-bytes", "write+read MB/s"},
	}
	records := pick(p.Scale, 20_000, 200_000)
	// Keys are random (they drive partitioning); values are log-like text
	// so the codec ablation runs in the compressible regime real shuffle
	// payloads live in (TeraGen's random values would be incompressible).
	keys := workload.TeraGen(records, 42)
	type rec struct{ key, value []byte }
	gen := make([]rec, records)
	for i := range gen {
		gen[i] = rec{
			key:   keys[i].Key,
			value: []byte(fmt.Sprintf("level=info user=%05d action=click page=/item/%04d ok", i%10000, i%500)),
		}
	}
	type writerKind struct {
		name string
		mk   func(shuffle.Config) (shuffle.Writer, error)
	}
	writers := []writerKind{
		{"hash", shuffle.NewHashWriter},
		{"sort", shuffle.NewSortWriter},
	}
	codecs := []compress.Codec{compress.None{}, compress.LZ{}}
	for _, wk := range writers {
		for _, codec := range codecs {
			var totalBytes int64
			for _, r := range gen {
				totalBytes += int64(len(r.key) + len(r.value))
			}
			cfg := shuffle.Config{
				Partitions:     16,
				Codec:          codec,
				SpillThreshold: totalBytes / 4, // force ~4 spills
			}
			start := time.Now()
			w, err := wk.mk(cfg)
			if err != nil {
				panic(err)
			}
			for _, r := range gen {
				if err := w.Write(r.key, r.value); err != nil {
					panic(err)
				}
			}
			blocks, stats, err := w.Close()
			if err != nil {
				panic(err)
			}
			read := 0
			for _, b := range blocks {
				recs, err := shuffle.ReadBlocks(codec, []shuffle.Block{b})
				if err != nil {
					panic(err)
				}
				read += len(recs)
			}
			elapsed := time.Since(start)
			if read != records {
				panic(fmt.Sprintf("E2: read %d of %d records", read, records))
			}
			mbs := float64(totalBytes) / 1e6 / elapsed.Seconds()
			t.AddRow(wk.name, codec.Name(),
				fmt.Sprintf("%d", records),
				fmt.Sprintf("%d", stats.Spills),
				fmt.Sprintf("%d", stats.WireBytes),
				fmt.Sprintf("%.0f", mbs))
		}
	}
	return t
}

// E3TeraSort runs weak-scaling TeraSort: fixed records per node, growing
// node counts; reports wall time, simulated network time and efficiency.
// Each row's output is checked: the partitions, concatenated, must be
// globally sorted and hold exactly the pairs TeraGen generated.
func E3TeraSort(p Params) *Table {
	t := &Table{
		ID:    "E3",
		Title: "TeraSort weak scaling (fixed records per node)",
		Note: "sort-based shuffle, range partitioning from sampled splits; single-host harness: " +
			"per-record throughput staying flat as data and nodes grow is ideal weak scaling — the drop " +
			"at high node counts is shuffle fan-in overhead (n^2 blocks); oracle: the partitions, " +
			"concatenated, are sorted by key and hold TeraGen's (key, value) pairs as a multiset",
		Cols: []string{"nodes", "records", "wall", "net(sim)", "rec/s", "rel-throughput", "oracle"},
	}
	type pair = hpbdc.Pair[string, string]
	teraPairs := func(part, n int) []pair {
		recs := workload.TeraGen(n, uint64(part)+100)
		out := make([]pair, len(recs))
		for i, r := range recs {
			out[i] = pair{Key: string(r.Key), Value: string(r.Value)}
		}
		return out
	}
	perNode := pick(p.Scale, 4_000, 40_000)
	var baseRate float64
	for _, nodes := range []int{2, 4, 8, 16} {
		racks := nodes / 4
		if racks < 1 {
			racks = 1
		}
		ctx := hpbdc.New(hpbdc.Config{
			Racks: racks, NodesPerRack: nodes / racks,
			Transport: "rdma", Seed: uint64(nodes),
			EnableTracing: true,
		})
		records := perNode * nodes
		parts := nodes * 2
		gen := hpbdc.SourceFunc(ctx, parts, func(part int) []pair { return teraPairs(part, records/parts) })
		start := time.Now()
		sorted, err := hpbdc.SortByKey(gen, hpbdc.StringCodec, hpbdc.StringCodec, parts, 64)
		if err != nil {
			panic(err)
		}
		out, err := sorted.CollectPartitions()
		if err != nil {
			panic(err)
		}
		wall := time.Since(start)
		var got, want []pair
		for part := range out {
			got = append(got, out[part]...)
			want = append(want, teraPairs(part, records/parts)...)
		}
		// TeraGen keys are 10 bytes, so key+value encodes a pair unambiguously.
		diff := check.DiffMultiset(fmt.Sprintf("E3/%dnodes", nodes), got, want, func(p pair) string { return p.Key + p.Value })
		if !slices.IsSortedFunc(got, func(a, b pair) int { return strings.Compare(a.Key, b.Key) }) {
			diff.OK, diff.Details = false, append(diff.Details, "partitions, concatenated, not sorted by key")
		}
		t.recordCheck(diff)
		n := len(got)
		rate := float64(n) / wall.Seconds()
		if baseRate == 0 {
			baseRate = rate
		}
		eff := rate / baseRate
		t.AddRow(
			fmt.Sprintf("%d", nodes),
			fmt.Sprintf("%d", n),
			wall.Round(time.Millisecond).String(),
			ctx.Engine().NetTime().Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", rate),
			fmt.Sprintf("%.2f", eff),
			verdictCell(diff),
		)
		if nodes == 8 {
			// One representative report keeps the table readable.
			p.Obs.observe(t, fmt.Sprintf("E3/terasort-%dnodes", nodes), ctx)
		}
	}
	return t
}

// E4WordCount compares the single-pass dataflow pipeline (map-side
// combine, pipelined stages) against a materializing two-phase MapReduce
// baseline (map output written to the DFS, reduce reads it back). Both
// systems' counts are checked against a plain word count of the corpus.
func E4WordCount(p Params) *Table {
	t := &Table{
		ID:    "E4",
		Title: "WordCount: dataflow engine vs 2-pass materializing MapReduce",
		Note:  "same cluster, same input; baseline pays DFS materialization and no combiner; oracle compares each system's counts to a plain word count",
		Cols:  []string{"system", "lines", "wall", "shuffle/DFS bytes", "speedup", "oracle"},
	}
	lines := pick(p.Scale, 2_000, 20_000)
	corpus := workload.Text(lines, 10, 1000, 1.0, 7)
	type count = hpbdc.Pair[string, int64]
	encodeCount := func(c count) string { return fmt.Sprintf("%s=%d", c.Key, c.Value) }
	pairsOf := func(m map[string]int64) []count {
		out := make([]count, 0, len(m))
		for w, n := range m {
			out = append(out, count{Key: w, Value: n})
		}
		return out
	}
	plain := map[string]int64{}
	for _, line := range corpus {
		for _, w := range strings.Fields(line) {
			plain[w]++
		}
	}
	want := pairsOf(plain)

	// Dataflow: pipelined with combiner.
	runtime.GC() // measurements must not inherit prior experiments' heaps
	ctx1 := hpbdc.New(hpbdc.Config{Racks: 2, NodesPerRack: 4, Seed: 1, EnableTracing: true})
	start := time.Now()
	words := hpbdc.FlatMap(hpbdc.Parallelize(ctx1, corpus, 16), strings.Fields)
	counts, err := hpbdc.CountByKey(hpbdc.KeyBy(words, func(w string) string { return w }), hpbdc.StringCodec, 8)
	if err != nil {
		panic(err)
	}
	dataflowWall := time.Since(start)
	dfDiff := t.recordCheck(check.DiffMultiset("E4/dataflow", pairsOf(counts), want, encodeCount))
	dfBytes := ctx1.Engine().Reg.Counter("shuffle_raw_bytes").Value()

	// MapReduce baseline: phase 1 writes (word,1) pairs as text to DFS;
	// phase 2 reads them back and reduces without a combiner.
	runtime.GC()
	ctx2 := hpbdc.New(hpbdc.Config{Racks: 2, NodesPerRack: 4, Seed: 1, EnableTracing: true})
	start = time.Now()
	mapped := hpbdc.FlatMap(hpbdc.Parallelize(ctx2, corpus, 16), strings.Fields)
	if err := hpbdc.SaveAsTextFile(mapped, "/mr/intermediate"); err != nil {
		panic(err)
	}
	phase2 := hpbdc.TextFile(ctx2, "/mr/intermediate")
	grouped := hpbdc.GroupByKey(
		hpbdc.KeyBy(phase2, func(w string) string { return w }),
		hpbdc.StringCodec, hpbdc.StringCodec, 8)
	sums := hpbdc.MapValues(grouped, func(vs []string) int64 { return int64(len(vs)) })
	mrCounts, err := sums.Collect()
	if err != nil {
		panic(err)
	}
	mrWall := time.Since(start)
	mrDiff := t.recordCheck(check.DiffMultiset("E4/mapreduce", mrCounts, want, encodeCount))
	mrBytes := ctx2.Engine().Reg.Counter("shuffle_raw_bytes").Value() +
		ctx2.DFS().TotalStoredBytes()

	t.AddRow("dataflow", fmt.Sprintf("%d", lines),
		dataflowWall.Round(time.Millisecond).String(),
		fmt.Sprintf("%d", dfBytes), "1.00x", verdictCell(dfDiff))
	t.AddRow("mapreduce-2pass", fmt.Sprintf("%d", lines),
		mrWall.Round(time.Millisecond).String(),
		fmt.Sprintf("%d", mrBytes),
		fmt.Sprintf("%.2fx", float64(dataflowWall)/float64(mrWall)), verdictCell(mrDiff))
	p.Obs.observe(t, "E4/dataflow", ctx1)
	p.Obs.observe(t, "E4/mapreduce", ctx2)
	return t
}

// E9Recovery measures fault recovery: a shuffled job is run, executor
// nodes are killed, and the job re-runs under (a) lineage recomputation
// and (b) checkpoint restore.
func E9Recovery(p Params) *Table {
	t := &Table{
		ID:    "E9",
		Title: "Fault recovery: lineage recomputation vs checkpoint restore",
		Note:  "kill 2 of 8 executors after first run; re-run the job",
		Cols:  []string{"variant", "first-run", "recovery-run", "tasks-rerun", "recovery/first"},
	}
	lines := pick(p.Scale, 1_000, 10_000)
	corpus := workload.Text(lines, 10, 500, 0.9, 3)

	run := func(job string, checkpoint bool) (time.Duration, time.Duration, int64) {
		ctx := hpbdc.New(hpbdc.Config{Racks: 2, NodesPerRack: 4, Seed: 9, EnableTracing: true})
		words := hpbdc.FlatMap(hpbdc.Parallelize(ctx, corpus, 16), strings.Fields)
		pairs := hpbdc.KeyBy(words, func(w string) string { return w })
		ones := hpbdc.MapValues(pairs, func(string) int64 { return 1 })
		counts := hpbdc.ReduceByKey(ones, hpbdc.StringCodec, hpbdc.Int64Codec, 8,
			func(a, b int64) int64 { return a + b })

		start := time.Now()
		if _, err := counts.Collect(); err != nil {
			panic(err)
		}
		first := time.Since(start)
		if checkpoint {
			codec := hpbdc.Codec[hpbdc.Pair[string, int64]]{
				Encode: func(p hpbdc.Pair[string, int64]) []byte {
					return append(append([]byte{byte(len(p.Key))}, p.Key...), hpbdc.Int64Codec.Encode(p.Value)...)
				},
				Decode: func(b []byte) hpbdc.Pair[string, int64] {
					kl := int(b[0])
					return hpbdc.Pair[string, int64]{
						Key:   string(b[1 : 1+kl]),
						Value: hpbdc.Int64Codec.Decode(b[1+kl:]),
					}
				},
			}
			if err := counts.Checkpoint("/ckpt/counts", codec); err != nil {
				panic(err)
			}
		}
		tasksBefore := ctx.Engine().Reg.Counter("tasks_launched").Value()
		_ = ctx.Cluster().Kill(topology.NodeID(1))
		_ = ctx.Cluster().Kill(topology.NodeID(5))
		start = time.Now()
		if _, err := counts.Collect(); err != nil {
			panic(err)
		}
		recovery := time.Since(start)
		rerun := ctx.Engine().Reg.Counter("tasks_launched").Value() - tasksBefore
		p.Obs.observe(t, job, ctx)
		return first, recovery, rerun
	}

	for _, variant := range []string{"lineage", "checkpoint"} {
		first, rec, rerun := run("E9/"+variant, variant == "checkpoint")
		t.AddRow(variant,
			first.Round(time.Millisecond).String(),
			rec.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", rerun),
			fmt.Sprintf("%.2fx", float64(rec)/float64(first)))
	}
	return t
}
