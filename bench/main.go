// Command bench is the repository's benchmark: six sized workloads over the
// program's public entry points, end-to-end metrics from untraced runs,
// per-layer metrics from traced runs, output checks on every run, and a
// comparison tool for parent-vs-change and A/A runs. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// env is the run environment every result records; -compare refuses
// results whose seed, scale, seconds or GOMAXPROCS differ.
type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

// resultFile is what a full run writes to bench/out/.
type resultFile struct {
	Env       env       `json:"env"`
	Workloads []*record `json:"workloads"`
}

func gitRev() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func main() {
	workload := flag.String("workload", "", "run this workload only (default: every workload, each in its own child process)")
	seed := flag.Uint64("seed", 42, "input seed")
	seconds := flag.Float64("seconds", 10, "length of each workload's timed phase")
	scale := flag.Float64("scale", 1, "input size multiplier")
	trace := flag.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes Chrome traces")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	// The simulated cluster's executors are goroutines; more than four
	// procs only adds scheduler noise on a bigger box.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare a.json b.json")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *workload != "":
		err = runOne(runCfg{workload: *workload, seed: *seed, seconds: *seconds, scale: *scale, trace: *trace == 1})
	default:
		err = runAll(*seed, *seconds, *scale, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func currentEnv(seed uint64, seconds, scale float64, trace bool) env {
	return env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitRev: gitRev(), Seed: seed, Scale: scale, Seconds: seconds, Trace: trace,
	}
}

// recordPrefix marks the line on which a single-workload run prints its
// full record for the parent of a full run to collect.
const recordPrefix = "record: "

// runOne runs one workload in this process, prints every metric by name
// with its unit, and ends with the one-line JSON result. A failed output
// check makes the exit code non-zero after the result is printed.
func runOne(cfg runCfg) error {
	rec, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	e := currentEnv(cfg.seed, cfg.seconds, cfg.scale, cfg.trace)
	fmt.Printf("# %s: nproc=%d GOMAXPROCS=%d %s rev=%s seed=%d scale=%g seconds=%g trace=%v\n",
		rec.Workload, e.NProc, e.GOMAXPROCS, e.GoVersion, e.GitRev, e.Seed, e.Scale, e.Seconds, e.Trace)
	fmt.Printf("# %s: %d rounds (%d counted), %d %ss, %d checked operations, %d failed, inputs %s, wall %.1f s\n",
		rec.Workload, rec.Rounds, rec.PrefixRound, rec.Items, rec.Item, rec.Attempted, rec.Failed, rec.Fingerprint, rec.WallS)
	printMetrics(rec, defs)
	for _, s := range rec.Shares {
		fmt.Printf("%-14s share: %-70s %10.3f CPU-ms/round %6.1f %% of round CPU budget\n", rec.Workload, s.Layer, s.Ms, s.Pct)
	}
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", recordPrefix, full)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{rec.Metrics[d.Name], d.Unit}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if !rec.Correct {
		return fmt.Errorf("%s: %d of %d checked operations failed: %s", rec.Workload, rec.Failed, rec.Attempted, rec.Failure)
	}
	return nil
}

// runAll runs every workload in its own child process (a re-exec of this
// binary), in the fixed order, and writes bench/out/result.json (or
// result.trace.json).
func runAll(seed uint64, seconds, scale float64, trace bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	out := resultFile{Env: currentEnv(seed, seconds, scale, trace)}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	began := time.Now()
	var failed []string
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-scale", fmt.Sprint(scale), "-trace", traceArg)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		var rec *record
		sc := bufio.NewScanner(&stdout)
		sc.Buffer(nil, 16<<20)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, recordPrefix); ok {
				rec = new(record)
				if err := json.Unmarshal([]byte(rest), rec); err != nil {
					return fmt.Errorf("%s: bad record line: %w", w.name, err)
				}
				continue
			}
			if !strings.HasPrefix(line, "{") {
				fmt.Println(line)
			}
		}
		if rec == nil {
			return fmt.Errorf("%s: child printed no record: %v", w.name, runErr)
		}
		if runErr != nil {
			failed = append(failed, w.name)
		}
		out.Workloads = append(out.Workloads, rec)
	}
	name := "result.json"
	if trace {
		name = "result.trace.json"
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("# wrote %s after %.0f s\n", path, time.Since(began).Seconds())
	if len(failed) > 0 {
		return fmt.Errorf("output checks failed on: %s", strings.Join(failed, ", "))
	}
	return nil
}
