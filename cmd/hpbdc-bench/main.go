// Command hpbdc-bench runs the reconstructed evaluation suite (DESIGN.md,
// experiments E1..E12) and prints each experiment's table. With -bench it
// instead regenerates the seed-deterministic BENCH_<family>.json files
// (internal/perf) and writes or compares them.
//
//	hpbdc-bench                 # run everything at full scale
//	hpbdc-bench -small          # quick pass (CI-sized inputs)
//	hpbdc-bench -run E1,E5,E12  # a subset
//	hpbdc-bench -metrics-addr :9090 -trace-out run.json
//	                            # scrapeable /metrics + Perfetto trace file
//	hpbdc-bench -bench all -bench-out .
//	                            # regenerate the committed files
//	hpbdc-bench -bench all -bench-diff .
//	                            # compare a fresh run against them; exit 1
//	                            # naming every field that differs
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/trace"
)

func main() {
	small := flag.Bool("small", false, "run CI-sized inputs instead of full scale")
	runList := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics, /debug/trace and /debug/jobs on this address (e.g. :9090)")
	traceOut := flag.String("trace-out", "",
		"write a Chrome/Perfetto trace JSON of all instrumented jobs to this file")
	seed := flag.Uint64("seed", 0, "fault-injection seed for the EFT experiment (0: default)")
	failProb := flag.Float64("fail-prob", 0, "global transient task failure probability for EFT")
	chaosSpec := flag.String("chaos", "",
		"chaos schedule for EFT: a preset name (crash, partition, straggler, flaky, mixed) or a schedule file")
	ckptInterval := flag.Int("ckpt-interval", 0,
		"fixed checkpoint interval (events) for E-SFT, replacing its interval sweep (0: sweep)")
	streamChaos := flag.String("stream-chaos", "",
		"chaos schedule for E-SFT: the stream preset or a schedule file with stream-crash/stream-restore events")
	haFlag := flag.Bool("ha", false,
		"run the E-HA control-plane HA experiment (alone unless -run adds more); "+
			"-seed and -chaos override its seed and schedule sweeps, -check verifies the oracle")
	grayFlag := flag.Bool("gray", false,
		"run the E-GRAY gray-failure availability experiment (alone unless -run adds more); "+
			"-seed and -chaos override its seed and schedule sweeps, -check verifies the bounds")
	checkFlag := flag.Bool("check", false,
		"after the run, print the oracle/linearizability harness verdict and exit nonzero on any mismatch")
	bench := flag.String("bench", "",
		"regenerate BENCH_<family>.json files instead of running experiments: a comma list of "+
			strings.Join(perf.Families(), ",")+" or 'all'")
	benchOut := flag.String("bench-out", "",
		"directory to write BENCH_<family>.json results into (with -bench)")
	benchDiff := flag.String("bench-diff", "",
		"directory holding BENCH_<family>.json files to compare against, exactly; exit 1 on any difference (with -bench)")
	benchSeed := flag.Uint64("bench-seed", 42, "workload seed for -bench (the committed files are seed 42)")
	flag.Parse()

	if *bench != "" {
		os.Exit(runBench(*bench, *benchOut, *benchDiff, *benchSeed))
	}

	if *haFlag {
		spec, err := loadChaosSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-chaos: %v\n", err)
			os.Exit(2)
		}
		experiments.SetHAConfig(*seed, spec)
		if *runList == "" {
			*runList = "E-HA"
		} else {
			*runList += ",E-HA"
		}
	}

	if *grayFlag {
		spec, err := loadChaosSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-chaos: %v\n", err)
			os.Exit(2)
		}
		experiments.SetGrayConfig(*seed, spec)
		if *runList == "" {
			*runList = "E-GRAY"
		} else {
			*runList += ",E-GRAY"
		}
	}

	if *seed != 0 || *failProb != 0 || *chaosSpec != "" {
		spec, err := loadChaosSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-chaos: %v\n", err)
			os.Exit(2)
		}
		experiments.SetFaultConfig(*seed, *failProb, spec)
	}
	if *seed != 0 || *ckptInterval != 0 || *streamChaos != "" {
		spec, err := loadChaosSpec(*streamChaos)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-stream-chaos: %v\n", err)
			os.Exit(2)
		}
		experiments.SetStreamFaultConfig(*seed, *ckptInterval, spec)
	}

	var (
		reg   *metrics.Registry
		rec   *trace.Recorder
		store *obs.ReportStore
	)
	if *metricsAddr != "" || *traceOut != "" {
		reg = metrics.NewRegistry()
		rec = trace.New()
		store = obs.NewReportStore()
		experiments.EnableObservability(reg, rec, store)
	}
	if *metricsAddr != "" {
		go func() {
			if err := http.ListenAndServe(*metricsAddr, obs.NewMux(reg, rec, store)); err != nil {
				fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
				os.Exit(1)
			}
		}()
		fmt.Fprintf(os.Stderr, "serving /metrics, /debug/trace, /debug/jobs on %s\n", *metricsAddr)
	}

	scale := experiments.Full
	if *small {
		scale = experiments.Small
	}
	want := map[string]bool{}
	if *runList != "" {
		for _, id := range strings.Split(*runList, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	start := time.Now()
	ran := 0
	for _, r := range experiments.All() {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		t0 := time.Now()
		table := r.Run(scale)
		table.Fprint(os.Stdout)
		fmt.Printf("  [%s completed in %v]\n", r.ID, time.Since(t0).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiments matched -run=%q\n", *runList)
		os.Exit(2)
	}
	fmt.Printf("\n%d experiments in %v\n", ran, time.Since(start).Round(time.Millisecond))

	if *checkFlag {
		summary, ok := experiments.CheckReport()
		fmt.Println(summary)
		if experiments.CheckCount() == 0 {
			fmt.Fprintln(os.Stderr, "-check: no oracle comparisons ran (include EFT, E-SFT, E-HA, E-GRAY or E5 in -run)")
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			os.Exit(1)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d spans to %s (load in chrome://tracing or ui.perfetto.dev)\n",
			rec.Len(), *traceOut)
	}
	if *metricsAddr != "" {
		// Keep the endpoint alive so the finished run can still be scraped
		// and inspected; Ctrl-C exits.
		fmt.Fprintf(os.Stderr, "done; still serving on %s — Ctrl-C to exit\n", *metricsAddr)
		select {}
	}
}

// runBench regenerates the selected perf families, optionally writes
// their BENCH_<family>.json files and/or compares them with the files in
// a baseline directory. Returns the process exit code: 0 clean, 1 on any
// differing field, 2 on usage/run errors.
func runBench(list, outDir, diffDir string, seed uint64) int {
	fams := perf.Families()
	if list != "all" {
		fams = strings.Split(list, ",")
	}
	failed := false
	for _, fam := range fams {
		fam = strings.TrimSpace(fam)
		res, err := perf.Run(fam, perf.Options{Seed: seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "bench %s: %d windows\n", fam, res.Shape["windows"])
		if outDir != "" {
			path, err := res.WriteFile(outDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench %s: %v\n", fam, err)
				return 2
			}
			fmt.Fprintf(os.Stderr, "bench %s: wrote %s\n", fam, path)
		}
		if diffDir != "" {
			base, err := perf.Load(filepath.Join(diffDir, perf.Filename(fam)))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench %s: baseline: %v\n", fam, err)
				return 2
			}
			rep := perf.Diff(base, res)
			fmt.Print(rep.String())
			failed = failed || !rep.OK()
		}
	}
	if failed {
		return 1
	}
	return 0
}

// loadChaosSpec resolves the -chaos flag: a path to a schedule file is
// read, anything else (a preset name or inline schedule text) passes
// through for the experiment to parse against its cluster size.
func loadChaosSpec(spec string) (string, error) {
	if spec == "" {
		return "", nil
	}
	if b, err := os.ReadFile(spec); err == nil {
		return string(b), nil
	}
	return spec, nil
}
