// Command hpbdc-bench runs the reconstructed evaluation suite (DESIGN.md,
// experiments E1..E12) and prints each experiment's table. With -bench it
// instead regenerates the seed-deterministic BENCH_<family>.json files
// (internal/perf) and writes or compares them.
//
//	hpbdc-bench                 # run everything at full scale
//	hpbdc-bench -small          # quick pass (CI-sized inputs)
//	hpbdc-bench -run E1,E5,E12  # a subset; an ID the suite lacks exits 2
//	hpbdc-bench -run E-HA -seed 5 -chaos "2 nn-crash leader" -check
//	                            # -seed, -chaos, -fail-prob and -ckpt-interval
//	                            # override the one experiment -run names and
//	                            # exit 2 unless it reads them; -check exits 1
//	                            # on any oracle mismatch in the tables printed
//	hpbdc-bench -metrics-addr :9090 -trace-out run.json
//	                            # scrapeable /metrics + Perfetto trace file
//	hpbdc-bench -bench all -bench-out .
//	                            # regenerate the committed files
//	hpbdc-bench -bench all -bench-diff .
//	                            # compare a fresh run against them; exit 1
//	                            # naming every field that differs
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters. Exit codes: 0
// clean, 1 on a failed check or differing BENCH field, 2 on usage errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hpbdc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	small := fs.Bool("small", false, "run CI-sized inputs instead of full scale")
	runList := fs.String("run", "", "comma-separated experiment IDs (default: all)")
	metricsAddr := fs.String("metrics-addr", "",
		"serve /metrics, /debug/trace and /debug/jobs on this address (e.g. :9090)")
	traceOut := fs.String("trace-out", "",
		"write a Chrome/Perfetto trace JSON of all instrumented jobs to this file")
	// The four overrides below need -run to name the one experiment they
	// apply to, and that experiment must read them (experiments.Runner.Overrides).
	seed := fs.Uint64("seed", 0,
		"replace the default seed (EFT, E-SFT) or the seed sweep (E-HA, E-GRAY) of the experiment named by -run")
	chaosSpec := fs.String("chaos", "",
		"replace the schedule sweep of the experiment named by -run (EFT, E-SFT, E-HA, E-GRAY) with one schedule: "+
			"a preset name (crash, partition, straggler, flaky, mixed, stream, nn-crash, ...), schedule text or a schedule file")
	failProb := fs.Float64("fail-prob", 0, "global transient task failure probability for -run EFT")
	ckptInterval := fs.Int("ckpt-interval", 0,
		"fixed checkpoint interval (events) for -run E-SFT, replacing its interval sweep")
	checkFlag := fs.Bool("check", false,
		"after the run, print the oracle/linearizability verdicts of the tables printed and exit nonzero on any mismatch")
	bench := fs.String("bench", "",
		"regenerate BENCH_<family>.json files instead of running experiments: a comma list of "+
			strings.Join(perf.Families(), ",")+" or 'all'")
	benchOut := fs.String("bench-out", "",
		"directory to write BENCH_<family>.json results into (with -bench)")
	benchDiff := fs.String("bench-diff", "",
		"directory holding BENCH_<family>.json files to compare against, exactly; exit 1 on any difference (with -bench)")
	benchSeed := fs.Uint64("bench-seed", 42, "workload seed for -bench (the committed files are seed 42)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *bench != "" {
		return runBench(stdout, stderr, *bench, *benchOut, *benchDiff, *benchSeed)
	}

	var overrides []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed", "chaos", "fail-prob", "ckpt-interval":
			overrides = append(overrides, f.Name)
		}
	})
	runners, err := selectRunners(*runList, overrides)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	params := experiments.Params{
		Scale: experiments.Full, Seed: *seed, Chaos: loadChaosSpec(*chaosSpec),
		FailProb: *failProb, CkptInterval: *ckptInterval,
	}
	if *small {
		params.Scale = experiments.Small
	}
	if *metricsAddr != "" || *traceOut != "" {
		params.Obs = experiments.Obs{Reg: metrics.NewRegistry(), Rec: trace.New(), Store: obs.NewReportStore()}
	}
	if *metricsAddr != "" {
		go func() {
			if err := http.ListenAndServe(*metricsAddr, obs.NewMux(params.Obs.Reg, params.Obs.Rec, params.Obs.Store)); err != nil {
				fmt.Fprintf(stderr, "metrics server: %v\n", err)
				os.Exit(1)
			}
		}()
		fmt.Fprintf(stderr, "serving /metrics, /debug/trace, /debug/jobs on %s\n", *metricsAddr)
	}

	start := time.Now()
	harness := check.NewHarness()
	for _, r := range runners {
		t0 := time.Now()
		table := r.Run(params)
		table.Fprint(stdout)
		fmt.Fprintf(stdout, "  [%s completed in %v]\n", r.ID, time.Since(t0).Round(time.Millisecond))
		for _, d := range table.Checks {
			harness.Record(d)
		}
	}
	fmt.Fprintf(stdout, "\n%d experiments in %v\n", len(runners), time.Since(start).Round(time.Millisecond))

	if *checkFlag {
		fmt.Fprintln(stdout, harness.Summary())
		if harness.Len() == 0 {
			fmt.Fprintln(stderr, "-check: no oracle comparisons ran (include E2, E3, E4, E7, E8, E9, E10, EFT, E-SFT, E-HA, E-OVL, E-TXN, E-GRAY, E-SQL or E5 in -run)")
			return 1
		}
		if !harness.OK() {
			return 1
		}
	}

	if *traceOut != "" {
		if err := writeTrace(*traceOut, params.Obs.Rec); err != nil {
			fmt.Fprintf(stderr, "trace-out: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %d spans to %s (load in chrome://tracing or ui.perfetto.dev)\n",
			params.Obs.Rec.Len(), *traceOut)
	}
	if *metricsAddr != "" {
		// Keep the endpoint alive so the finished run can still be scraped
		// and inspected; Ctrl-C exits.
		fmt.Fprintf(stderr, "done; still serving on %s — Ctrl-C to exit\n", *metricsAddr)
		select {}
	}
	return 0
}

// selectRunners resolves -run against the registry (in suite order; empty
// = all) and checks the override flags given: each needs exactly one
// experiment, and one that reads it. Anything else is a usage error
// rather than a silently dropped ID or an override applied to nothing.
func selectRunners(list string, overrides []string) ([]experiments.Runner, error) {
	all := experiments.All()
	picked := all
	if list != "" {
		want := map[string]bool{}
		for _, id := range strings.Split(list, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
		picked = nil
		for _, r := range all {
			if want[r.ID] {
				picked = append(picked, r)
				delete(want, r.ID)
			}
		}
		if len(want) > 0 {
			unknown := make([]string, 0, len(want))
			for id := range want {
				unknown = append(unknown, fmt.Sprintf("%q", id))
			}
			sort.Strings(unknown)
			return nil, fmt.Errorf("-run: no experiment %s in the suite", strings.Join(unknown, ", "))
		}
	}
	for _, name := range overrides {
		if len(picked) != 1 {
			return nil, fmt.Errorf("-%s overrides one experiment: -run must name exactly one, not %d", name, len(picked))
		}
		if r := picked[0]; !slices.Contains(r.Overrides, name) {
			return nil, fmt.Errorf("-%s: %s does not read it (overrides it reads: %v)", name, r.ID, r.Overrides)
		}
	}
	return picked, nil
}

// writeTrace writes the combined span recorder as Chrome trace JSON.
func writeTrace(path string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runBench regenerates the selected perf families, optionally writes
// their BENCH_<family>.json files and/or compares them with the files in
// a baseline directory. Returns the process exit code: 0 clean, 1 on any
// differing field, 2 on usage/run errors.
func runBench(stdout, stderr io.Writer, list, outDir, diffDir string, seed uint64) int {
	fams := perf.Families()
	if list != "all" {
		fams = strings.Split(list, ",")
	}
	failed := false
	for _, fam := range fams {
		fam = strings.TrimSpace(fam)
		res, err := perf.Run(fam, perf.Options{Seed: seed})
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "bench %s: %d windows\n", fam, res.Shape["windows"])
		if outDir != "" {
			path, err := res.WriteFile(outDir)
			if err != nil {
				fmt.Fprintf(stderr, "bench %s: %v\n", fam, err)
				return 2
			}
			fmt.Fprintf(stderr, "bench %s: wrote %s\n", fam, path)
		}
		if diffDir != "" {
			base, err := perf.Load(filepath.Join(diffDir, perf.Filename(fam)))
			if err != nil {
				fmt.Fprintf(stderr, "bench %s: baseline: %v\n", fam, err)
				return 2
			}
			rep := perf.Diff(base, res)
			fmt.Fprint(stdout, rep.String())
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
func loadChaosSpec(spec string) string {
	if b, err := os.ReadFile(spec); err == nil {
		return string(b)
	}
	return spec
}
