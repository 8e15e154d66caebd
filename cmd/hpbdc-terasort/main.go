// Command hpbdc-terasort runs a configurable TeraSort on the simulated
// cluster and validates the output.
//
//	hpbdc-terasort -records 1000000 -nodes 16 -transport rdma
//	hpbdc-terasort -report -trace-out sort.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	hpbdc "repro"
	"repro/internal/chaos"
	"repro/internal/workload"
)

func main() {
	records := flag.Int("records", 200_000, "records to sort (100 bytes each)")
	nodes := flag.Int("nodes", 8, "cluster size")
	transport := flag.String("transport", "rdma", "network model: rdma, tcp, ipoib")
	codec := flag.String("codec", "none", "shuffle compression: none, rle, lz, flate")
	seed := flag.Uint64("seed", 1, "workload, fault-injection and chaos seed")
	failProb := flag.Float64("fail-prob", 0, "transient task failure probability")
	chaosSpec := flag.String("chaos", "",
		"chaos schedule: a preset name (crash, partition, straggler, flaky, mixed), schedule text or a schedule file")
	speculation := flag.Bool("speculation", false, "launch speculative backups for straggler tasks")
	report := flag.Bool("report", false, "print the job report (stage breakdown, stragglers, shuffle skew)")
	traceOut := flag.String("trace-out", "", "write a Chrome/Perfetto trace JSON to this file")
	flag.Parse()

	racks := *nodes / 4
	if racks < 1 {
		racks = 1
	}
	var sched chaos.Schedule
	if *chaosSpec != "" {
		spec := *chaosSpec
		if b, err := os.ReadFile(spec); err == nil {
			spec = string(b)
		}
		var err error
		sched, err = chaos.Load(spec, *nodes)
		if err != nil {
			log.Fatalf("-chaos: %v", err)
		}
	}
	ctx := hpbdc.New(hpbdc.Config{
		Racks:         racks,
		NodesPerRack:  *nodes / racks,
		Transport:     *transport,
		ShuffleCodec:  *codec,
		Seed:          *seed,
		TaskFailProb:  *failProb,
		Speculation:   *speculation,
		Chaos:         sched,
		EnableTracing: *report || *traceOut != "",
	})
	parts := *nodes * 2
	gen := hpbdc.SourceFunc(ctx, parts, func(part int) []hpbdc.Pair[string, string] {
		recs := workload.TeraGen(*records/parts, *seed+uint64(part))
		out := make([]hpbdc.Pair[string, string], len(recs))
		for i, r := range recs {
			out[i] = hpbdc.Pair[string, string]{Key: string(r.Key), Value: string(r.Value)}
		}
		return out
	})

	start := time.Now()
	sorted, err := hpbdc.SortByKey(gen, hpbdc.StringCodec, hpbdc.StringCodec, parts, 128)
	if err != nil {
		log.Fatal(err)
	}
	out, err := sorted.CollectPartitions()
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)

	n, prev := 0, ""
	for _, part := range out {
		for _, p := range part {
			if p.Key < prev {
				log.Fatalf("output not sorted at record %d", n)
			}
			prev = p.Key
			n++
		}
	}
	reg := ctx.Engine().Reg
	fmt.Printf("sorted %d records (%.1f MB) on %d nodes over %s in %v\n",
		n, float64(n)*100/1e6, *nodes, *transport, wall.Round(time.Millisecond))
	fmt.Printf("simulated network time: %v; shuffle raw %d B, wire %d B, %d spills\n",
		ctx.Engine().NetTime().Round(time.Millisecond),
		reg.Counter("shuffle_raw_bytes").Value(),
		reg.Counter("shuffle_wire_bytes").Value(),
		reg.Counter("shuffle_spills").Value())
	if sched != nil || *failProb > 0 {
		fmt.Printf("recovery: %d retries, %d speculative wins, %d quarantined nodes, %d blocked fetches, %d/%d chaos events\n",
			reg.Counter("task_retries").Value(),
			reg.Counter("speculative_wins").Value(),
			reg.Counter("quarantined_nodes").Value(),
			reg.Counter("partition_blocked_fetches").Value(),
			ctx.Chaos().Applied(), len(sched))
	}
	if *report {
		fmt.Print(ctx.Report("terasort").String())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := ctx.Tracer().WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote trace to %s\n", *traceOut)
	}
}
