package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

const testScale = 0.01

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness %q (or the why differs)", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the harness", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m.Name == "setup_s"
	}
	if !hasSetup {
		t.Error("no setup_s among the end_to_end metrics")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the harness", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or already a metric name", w.name)
		}
	}
}

func run(t *testing.T, workload string, seed uint64, trace bool) *record {
	t.Helper()
	rec, err := runWorkload(runCfg{workload: workload, seed: seed, seconds: 0, scale: testScale, trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %s", workload, rec.Correct, rec.Attempted, rec.Failed, rec.Failure)
	}
	return rec
}

func TestUntracedRuns(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b, other := run(t, w.name, 42, false), run(t, w.name, 42, false), run(t, w.name, 43, false)
			for _, d := range endToEnd {
				if v, ok := a.Metrics[d.Name]; !ok || v <= 0 {
					t.Errorf("%s = %v, want it reported and never 0", d.Name, v)
				}
			}
			if len(a.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want exactly the %d end-to-end ones", len(a.Metrics), len(endToEnd))
			}
			if a.Fingerprint != b.Fingerprint {
				t.Errorf("inputs_fingerprint differs between two runs of one seed: %s, %s", a.Fingerprint, b.Fingerprint)
			}
			if a.Fingerprint == other.Fingerprint {
				t.Errorf("inputs_fingerprint %s is the same for seeds 42 and 43", a.Fingerprint)
			}
			if a.Rounds != w.prefix || a.Rounds != b.Rounds || a.Items != b.Items || a.Attempted != b.Attempted {
				t.Errorf("counts differ between two runs of one seed: rounds %d/%d (prefix %d) items %d/%d attempted %d/%d",
					a.Rounds, b.Rounds, w.prefix, a.Items, b.Items, a.Attempted, b.Attempted)
			}
		})
	}
}

func TestTracedRuns(t *testing.T) {
	outDir = t.TempDir()
	exact := []string{"sim_latency_p50_us", "sim_latency_p99_us", "sim_net_ms_per_round", "wire_bytes_per_item", "failed_ratio",
		"shuffle.combine_ratio", "netsim.fetches_per_round", "core.tasks_per_round", "core.stages_per_round", "stream.late_dropped"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := run(t, w.name, 42, true), run(t, w.name, 42, true)
			for _, d := range perLayer {
				if _, ok := a.Metrics[d.Name]; !ok {
					t.Errorf("%s not reported", d.Name)
				}
			}
			if len(a.Metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, want exactly the %d per-layer ones", len(a.Metrics), len(perLayer))
			}
			for _, name := range exact {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s differs between two runs of one seed: %v, %v", name, a.Metrics[name], b.Metrics[name])
				}
			}
			if len(a.Shares) == 0 {
				t.Error("no layer shares reported")
			}
			data, err := os.ReadFile(filepath.Join(outDir, w.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []struct {
					Name string
					Ph   string
					Dur  float64
				}
			}
			if err := json.Unmarshal(data, &trace); err != nil {
				t.Fatalf("trace does not load: %v", err)
			}
			rounds, probes := 0, 0
			for _, e := range trace.TraceEvents {
				if e.Name == "round" {
					rounds++
				}
				if strings.HasPrefix(e.Name, "probe ") {
					probes++
				}
			}
			if rounds != w.prefix || probes == 0 {
				t.Errorf("trace has %d round spans (want %d) and %d probe spans", rounds, w.prefix, probes)
			}
		})
	}
}

// Which workloads a layer's probes report on is the design the README
// describes; a probe that starts reporting elsewhere has been misplaced.
func TestProbesStayOnTheirWorkloads(t *testing.T) {
	outDir = t.TempDir()
	own := map[string][]string{
		"compress.": {"sort_wide"},
		"dfs.":      {"sort_wide"},
		"table.":    {"sql_star"},
		"query.":    {"sql_star"},
		"stream.":   {"stream_window"},
		"kvstore.r": {"kv_mix"},
		"kvstore.s": {"kv_txn"},
		"ha.":       {"kv_txn"},
	}
	for _, w := range workloads {
		rec := run(t, w.name, 7, true)
		for prefix, owners := range own {
			mine := false
			for _, o := range owners {
				mine = mine || o == w.name
			}
			nonzero := 0
			for name, v := range rec.Metrics {
				if strings.HasPrefix(name, prefix) && v != 0 {
					nonzero++
				}
			}
			if mine && nonzero == 0 {
				t.Errorf("%s: every %s* metric is 0", w.name, prefix)
			}
			if !mine && nonzero > 0 {
				t.Errorf("%s: %d %s* metrics are non-zero, want none", w.name, nonzero, prefix)
			}
		}
		switch w.name {
		case "sort_wide":
			if rec.Metrics["shuffle.combine_ratio"] != 1 {
				t.Errorf("sort_wide: shuffle.combine_ratio = %v, want 1", rec.Metrics["shuffle.combine_ratio"])
			}
		case "agg_combine":
			if rec.Metrics["shuffle.read_merge_ns_per_rec"] != 0 || rec.Metrics["shuffle.sort_write_ns_per_rec"] != 0 {
				t.Error("agg_combine: sort-merge metrics are non-zero")
			}
		}
	}
}

func TestCheckSortedRejectsCorruption(t *testing.T) {
	in, sum := genSortRound(1, 0, 64, 4)
	var all []sortRec
	for _, p := range in {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	good := func() [][]sortRec {
		return [][]sortRec{append([]sortRec(nil), all[:20]...), append([]sortRec(nil), all[20:]...)}
	}
	if err := checkSorted(good(), 64, sum); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	swapped := good()
	swapped[0][3], swapped[0][4] = swapped[0][4], swapped[0][3]
	dropped := good()
	dropped[1] = dropped[1][1:]
	changed := good()
	changed[1][0].Value = "x" + changed[1][0].Value[1:]
	duplicated := good()
	duplicated[1][1] = duplicated[1][0]
	for name, out := range map[string][][]sortRec{"swapped": swapped, "dropped": dropped, "changed": changed, "duplicated": duplicated} {
		if checkSorted(out, 64, sum) == nil {
			t.Errorf("%s output accepted", name)
		}
	}
}

func TestCheckCountsRejectsCorruption(t *testing.T) {
	_, want := genAggRound(1, 0, 4096, 4)
	good := func() []aggPair {
		var out []aggPair
		for k, c := range want {
			if c != 0 {
				out = append(out, aggPair{Key: int64(k), Value: c})
			}
		}
		return out
	}
	if err := checkCounts(good(), want); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	miscounted := good()
	miscounted[5].Value++
	missing := good()[1:]
	twice := append(good(), good()[0])
	for name, out := range map[string][]aggPair{"miscounted": miscounted, "missing": missing, "twice": twice} {
		if checkCounts(out, want) == nil {
			t.Errorf("%s output accepted", name)
		}
	}
}

func TestCheckRowsRejectsCorruption(t *testing.T) {
	want := [][]any{{int64(1), "a", 0.25}, {int64(2), "b", 0.5}, {int64(3), "c", 0.75}}
	same := [][]any{{int64(1), "a", 0.25}, {int64(2), "b", 0.5}, {int64(3), "c", 0.75}}
	permuted := [][]any{want[2], want[0], want[1]}
	changed := [][]any{{int64(1), "a", 0.25}, {int64(2), "b", 0.5000001}, {int64(3), "c", 0.75}}
	if err := checkRows(0, same, want, true); err != nil {
		t.Errorf("identical rows rejected: %v", err)
	}
	if err := checkRows(0, permuted, want, false); err != nil {
		t.Errorf("permuted rows of an unordered query rejected: %v", err)
	}
	if checkRows(0, permuted, want, true) == nil {
		t.Error("permuted rows of an ordered query accepted")
	}
	if checkRows(0, changed, want, false) == nil {
		t.Error("changed value accepted")
	}
	if checkRows(0, want[:2], want, false) == nil {
		t.Error("missing row accepted")
	}
}

func TestCheckWindowsRejectsCorruption(t *testing.T) {
	const events = 5000
	type pane struct {
		w int64
		k int
	}
	agg := map[pane]*streamResult{}
	keys := newBenchSource(9, 0).keys
	for i := int64(0); i < events; i++ {
		k, v, ts := streamEventAt(9, i)
		p := pane{ts / streamWindowNs, k}
		if agg[p] == nil {
			agg[p] = &streamResult{WindowStart: time.Duration(p.w * streamWindowNs), Key: keys[k]}
		}
		agg[p].Sum += v
		agg[p].Count++
	}
	good := func() []streamResult {
		var out []streamResult
		for _, r := range agg {
			out = append(out, *r)
		}
		return out
	}
	if bad, err := checkWindows(good(), 9, events); bad != 0 {
		t.Fatalf("correct output rejected: %d bad panes: %v", bad, err)
	}
	wrongSum := good()
	wrongSum[0].Sum++
	wrongCount := good()
	wrongCount[1].Count--
	missing := good()[1:]
	twice := append(good(), good()[0])
	for name, out := range map[string][]streamResult{"wrong sum": wrongSum, "wrong count": wrongCount, "missing": missing, "twice": twice} {
		if bad, _ := checkWindows(out, 9, events); bad != 1 {
			t.Errorf("%s: %d bad panes, want 1", name, bad)
		}
	}
}

func TestCheckReadRejectsCorruption(t *testing.T) {
	if !checkRead([]byte("abc"), []byte("abc")) || !checkRead(nil, nil) {
		t.Error("matching reads rejected")
	}
	if checkRead([]byte("abd"), []byte("abc")) || checkRead(nil, []byte("abc")) || checkRead([]byte{}, nil) {
		t.Error("a stale, missing or unexpected value was accepted")
	}
}

func TestVerdicts(t *testing.T) {
	wall := metricDef{Name: "throughput_per_s", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "allocs_per_item", Better: "lower", Bound: 0.02, Exact: true}
	cases := []struct {
		d          metricDef
		a, b       float64
		sameCommit bool
		want       string
	}{
		{wall, 100, 95, true, "PASS"},
		{wall, 100, 85, true, "UNRESOLVED"},
		{wall, 100, 115, true, "UNRESOLVED"},
		{wall, 100, 85, false, "FAIL"},
		{wall, 100, 130, false, "PASS"},
		{exact, 10, 10.1, true, "PASS"},
		{exact, 10, 10.5, true, "FAIL"},
		{exact, 10, 10.5, false, "FAIL"},
		{exact, 10, 9, false, "PASS"},
	}
	for _, c := range cases {
		if got := verdict(c.d, c.a, c.b, c.sameCommit); got != c.want {
			t.Errorf("verdict(%s, %v -> %v, same commit %v) = %s, want %s", c.d.Name, c.a, c.b, c.sameCommit, got, c.want)
		}
	}
}

func TestCompareRefusesMismatchedRuns(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r resultFile) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := func() resultFile {
		return resultFile{
			Env: env{GOMAXPROCS: 2, Seed: 42, Scale: 1, Seconds: 10, GitRev: "abc"},
			Workloads: []*record{{Workload: "kv_mix", Fingerprint: "f00d", Metrics: map[string]float64{
				"setup_s": 1, "throughput_per_s": 100, "round_p10_ms": 5, "allocs_per_item": 9, "alloc_bytes_per_item": 800}}},
		}
	}
	a := write("a.json", base())
	if err := compareFiles(io.Discard, a, write("same.json", base())); err != nil {
		t.Errorf("identical results: %v", err)
	}
	seed := base()
	seed.Env.Seed = 43
	scale := base()
	scale.Env.Scale = 0.5
	procs := base()
	procs.Env.GOMAXPROCS = 4
	inputs := base()
	inputs.Workloads[0].Fingerprint = "beef"
	for name, r := range map[string]resultFile{"seed": seed, "scale": scale, "GOMAXPROCS": procs, "inputs_fingerprint": inputs} {
		if err := compareFiles(io.Discard, a, write(name+".json", r)); err == nil || !strings.Contains(err.Error(), "refusing") {
			t.Errorf("different %s: err = %v, want a refusal", name, err)
		}
	}
	slower := base()
	slower.Env.GitRev = "def"
	slower.Workloads[0].Metrics["throughput_per_s"] = 60
	if err := compareFiles(io.Discard, a, write("slower.json", slower)); err == nil {
		t.Error("a 40% slower change was not failed")
	}
}
