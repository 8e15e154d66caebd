package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/check"
)

// The experiment suite is itself code under test: every experiment must
// run at Small scale, produce a well-formed table, and exhibit the
// headline shape DESIGN.md claims for it.

func runAndCheck(t *testing.T, fn func(Params) *Table) *Table {
	t.Helper()
	return checkTable(t, fn(Params{}))
}

func checkTable(t *testing.T, table *Table) *Table {
	t.Helper()
	if table.ID == "" || table.Title == "" {
		t.Fatal("table missing ID/title")
	}
	if len(table.Rows) == 0 {
		t.Fatalf("%s produced no rows", table.ID)
	}
	for i, row := range table.Rows {
		if len(row) != len(table.Cols) {
			t.Fatalf("%s row %d has %d cells, header has %d", table.ID, i, len(row), len(table.Cols))
		}
	}
	var buf bytes.Buffer
	table.Fprint(&buf)
	if !strings.Contains(buf.String(), table.ID) {
		t.Fatalf("%s render missing ID", table.ID)
	}
	return table
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("unparseable cell %q: %v", s, err)
	}
	return v
}

func TestE1Shapes(t *testing.T) {
	table := runAndCheck(t, E1Transport)
	// These latency ratios come from the deterministic fabric cost model
	// (netsim.Fabric.Cost), not wall clock, so asserting on them is not a
	// flakiness risk — this one stays numeric by design.
	// RDMA advantage shrinks as messages grow (overhead- to
	// bandwidth-bound transition).
	first := parse(t, table.Rows[0][len(table.Cols)-1])
	last := parse(t, table.Rows[len(table.Rows)-1][len(table.Cols)-1])
	if first < 5 {
		t.Fatalf("small-message tcp/rdma ratio %v, want >= 5", first)
	}
	if last >= first {
		t.Fatalf("ratio did not shrink with size: %v -> %v", first, last)
	}
}

func TestE2Shapes(t *testing.T) {
	table := runAndCheck(t, E2Shuffle)
	if len(table.Rows) != 4 || len(table.Checks) != 4 {
		t.Fatalf("rows = %d, checks = %d", len(table.Rows), len(table.Checks))
	}
	for i, row := range table.Rows {
		if !table.Checks[i].OK || row[6] != "ok" {
			t.Fatalf("row %d: %v", i, table.Checks[i])
		}
	}
	// LZ rows must move fewer wire bytes than None rows.
	noneWire := parse(t, table.Rows[0][4])
	lzWire := parse(t, table.Rows[1][4])
	if lzWire >= noneWire {
		t.Fatalf("lz wire %v >= none wire %v", lzWire, noneWire)
	}
}

func TestE3Shapes(t *testing.T) {
	table := runAndCheck(t, E3TeraSort)
	// Weak scaling, asserted on record counts rather than throughput:
	// each row doubles the node count at fixed records per node, so the
	// sorted output must double too, and every row's oracle (sorted, and
	// TeraGen's pairs) must hold. Wall-clock relative throughput varies
	// with host load and is reported, not asserted.
	if len(table.Rows) != 4 || len(table.Checks) != 4 {
		t.Fatalf("rows = %d, checks = %d", len(table.Rows), len(table.Checks))
	}
	prev := 0.0
	for i, row := range table.Rows {
		n := parse(t, row[1])
		if i > 0 && n != 2*prev {
			t.Fatalf("row %d sorted %v records, want double the previous %v", i, n, prev)
		}
		if !table.Checks[i].OK || row[6] != "ok" {
			t.Fatalf("row %d: %v", i, table.Checks[i])
		}
		prev = n
	}
}

func TestE4Shapes(t *testing.T) {
	table := runAndCheck(t, E4WordCount)
	// The materializing baseline must move strictly more bytes than the
	// pipelined dataflow run (it pays DFS materialization and runs no
	// combiner) — a deterministic data-volume assertion; the wall-clock
	// speedup column varies with host load and is reported, not asserted.
	dfBytes := parse(t, table.Rows[0][3])
	mrBytes := parse(t, table.Rows[1][3])
	if mrBytes <= dfBytes {
		t.Fatalf("materializing baseline moved %v bytes <= dataflow's %v", mrBytes, dfBytes)
	}
}

func TestE5Shapes(t *testing.T) {
	table := runAndCheck(t, E5KVQuorum)
	if len(table.Rows) != 8 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// Every quorum config's captured history must be linearizable.
	for _, row := range table.Rows {
		if row[len(row)-1] != "ok" {
			t.Fatalf("row %v failed the linearizability check", row)
		}
	}
}

func TestE6Shapes(t *testing.T) {
	table := runAndCheck(t, E6Scheduler)
	byName := map[string][]string{}
	for _, r := range table.Rows {
		byName[r[0]] = r
	}
	delayLoc := parse(t, byName["delay"][4])
	fairLoc := parse(t, byName["fair"][4])
	if delayLoc <= fairLoc {
		t.Fatalf("delay locality %v%% <= fair %v%%", delayLoc, fairLoc)
	}
}

func TestE8Shapes(t *testing.T) {
	table := runAndCheck(t, E8PageRank)
	if len(table.Checks) != len(table.Rows) {
		t.Fatalf("%d checks for %d runs", len(table.Checks), len(table.Rows))
	}
	for _, d := range table.Checks {
		if !d.OK || d.Compared != 1<<12 {
			t.Fatalf("%s", d)
		}
	}
	s1 := parse(t, table.Rows[0][3])
	s8contig := parse(t, table.Rows[3][3])
	s8hashed := parse(t, table.Rows[7][3])
	if s8contig <= s1 {
		t.Fatalf("modeled speedup flat: %v -> %v", s1, s8contig)
	}
	// The ablation: hashed partitioning spreads hubs and must beat
	// contiguous at 8 workers on a power-law graph.
	if s8hashed <= s8contig {
		t.Fatalf("hashed speedup %v <= contiguous %v", s8hashed, s8contig)
	}
}

func TestE9Shapes(t *testing.T) {
	table := runAndCheck(t, E9Recovery)
	// Each variant's first run and recovery run must return the
	// failure-free answer: lineage recompute and checkpoint restore alike.
	if len(table.Checks) != 4 {
		t.Fatalf("%d checks, want 4", len(table.Checks))
	}
	for _, d := range table.Checks {
		if !d.OK || d.Compared == 0 {
			t.Fatalf("%s", d)
		}
	}
	for _, row := range table.Rows {
		if row[5] != "ok" {
			t.Fatalf("%s: oracle %s", row[0], row[5])
		}
	}
	lineageTasks := parse(t, table.Rows[0][3])
	ckptTasks := parse(t, table.Rows[1][3])
	if ckptTasks >= lineageTasks {
		t.Fatalf("checkpoint reran %v tasks, lineage %v", ckptTasks, lineageTasks)
	}
}

func TestE10Shapes(t *testing.T) {
	table := runAndCheck(t, E10ParamServer)
	if len(table.Checks) != len(table.Rows) {
		t.Fatalf("%d checks for %d modes", len(table.Checks), len(table.Rows))
	}
	for i, d := range table.Checks {
		if !d.OK || d.Compared != 2 || table.Rows[i][5] != "ok" {
			t.Fatalf("%s: %s", table.Rows[i][0], d)
		}
	}
	for _, row := range table.Rows {
		if acc := parse(t, row[4]); acc < 0.85 {
			t.Fatalf("%s accuracy %v below 0.85", row[0], acc)
		}
	}
}

func TestE11Shapes(t *testing.T) {
	table := runAndCheck(t, E11Autoscale)
	byName := map[string][]string{}
	for _, r := range table.Rows {
		byName[r[0]] = r
	}
	autoCost := parse(t, byName["autoscaler"][1])
	peakCost := parse(t, byName["peak-static"][1])
	if autoCost >= peakCost {
		t.Fatalf("autoscaler cost %v >= peak-static %v", autoCost, peakCost)
	}
	meanViol := parse(t, strings.TrimSuffix(byName["mean-static"][3], "%"))
	autoViol := parse(t, strings.TrimSuffix(byName["autoscaler"][3], "%"))
	if autoViol >= meanViol {
		t.Fatalf("autoscaler violations %v%% >= mean-static %v%%", autoViol, meanViol)
	}
	// The SLO-driven policy must appear and also beat mean-static.
	slo, ok := byName["slo-p99"]
	if !ok {
		t.Fatal("slo-p99 row missing")
	}
	if sloViol := parse(t, strings.TrimSuffix(slo[3], "%")); sloViol >= meanViol {
		t.Fatalf("slo-p99 violations %v%% >= mean-static %v%%", sloViol, meanViol)
	}
}

func TestE12Shapes(t *testing.T) {
	table := runAndCheck(t, E12Raft)
	for _, row := range table.Rows {
		if row[1] == "no leader" {
			t.Fatal("a cluster failed to elect")
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 19 {
		t.Fatalf("registry has %d experiments, want 19", len(all))
	}
	seen := map[string]bool{}
	for _, r := range all {
		if seen[r.ID] {
			t.Fatalf("duplicate experiment %s", r.ID)
		}
		seen[r.ID] = true
		if r.Run == nil || r.Name == "" {
			t.Fatalf("experiment %s incomplete", r.ID)
		}
	}
}

// E7 involves real-time pacing; exercise it but keep assertions loose.
func TestE7Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("pacing-based experiment")
	}
	table := runAndCheck(t, E7Stream)
	if len(table.Rows) != 6 || len(table.Checks) != 6 {
		t.Fatalf("rows = %d, checks = %d", len(table.Rows), len(table.Checks))
	}
	// Every run's panes must equal the reference fold of the events sent.
	for _, row := range table.Rows {
		if row[len(row)-1] != "ok" {
			t.Fatalf("row %v failed the oracle diff", row)
		}
	}
}

func TestEFTShapes(t *testing.T) {
	table := runAndCheck(t, EFTChaos)
	// Clean run + every chaos preset x speculation off/on.
	if len(table.Rows) < 3 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// Every run — clean and faulted alike — must reproduce the
	// sequential reference output exactly.
	for _, row := range table.Rows {
		if row[len(row)-1] != "ok" {
			t.Fatalf("row %v failed the oracle diff", row)
		}
	}
	// The diffs also land in the table for hpbdc-bench -check: one per
	// row, and one per faulted row on its schedule, which fired.
	if want := 2*len(table.Rows) - 1; len(table.Checks) != want {
		t.Fatalf("table recorded %d verdicts for %d rows, want %d", len(table.Checks), len(table.Rows), want)
	}
	for _, d := range table.Checks {
		if !d.OK {
			t.Fatalf("recorded verdict: %s", d)
		}
		if strings.HasSuffix(d.Name, "/faults") && d.Compared == 0 {
			t.Fatalf("%s: no event fired", d.Name)
		}
	}
}

func TestESFTShapes(t *testing.T) {
	table := runAndCheck(t, ESFTStream)
	// 3 intervals x 3 crash counts.
	if len(table.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(table.Rows))
	}
	for i, row := range table.Rows {
		if got := row[len(row)-2]; got != "yes" {
			t.Fatalf("row %d (%v): faulted output diverged from clean run", i, row)
		}
		if got := row[len(row)-1]; got != "ok" {
			t.Fatalf("row %d (%v): output failed the window oracle", i, row)
		}
	}
	// Every faulted run must have actually recovered (replayed a tail) and
	// suppressed duplicates at the sink; checkpointed faulted runs must
	// replay less than the ones restarting from offset zero.
	for _, row := range table.Rows {
		if row[1] == "0" {
			continue
		}
		if parse(t, row[6]) <= 0 {
			t.Fatalf("faulted row %v replayed nothing", row)
		}
		if parse(t, row[7]) <= 0 {
			t.Fatalf("faulted row %v deduped nothing", row)
		}
	}
}

func TestEHAShapes(t *testing.T) {
	table := runAndCheck(t, EHAControlPlane)
	// 3 control-plane schedules x 3 seeds.
	if len(table.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(table.Rows))
	}
	for _, row := range table.Rows {
		// Headline claim: no control-plane fault schedule fails the job or
		// corrupts its output.
		if row[len(row)-1] != "ok" {
			t.Fatalf("row %v failed the oracle diff", row)
		}
		sched := row[0]
		failovers, resumed := parse(t, row[3]), parse(t, row[7])
		if sched != "coord-crash" && failovers < 1 {
			t.Fatalf("row %v: namenode leader crash recorded no failover", row)
		}
		if sched != "nn-crash" {
			if parse(t, row[6]) < 1 {
				t.Fatalf("row %v: coordinator crash never fired", row)
			}
			// The journal must salvage work: at least one stage resumed
			// rather than recomputed.
			if resumed < 1 {
				t.Fatalf("row %v: no journaled stage was resumed", row)
			}
		}
	}
}

func TestEOVLShapes(t *testing.T) {
	table := runAndCheck(t, EOVLOverload)
	// 4 offered-load multiples x {admission, control} + one chaos row.
	if len(table.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(table.Rows))
	}
	goodput := map[string]float64{} // "mult/mode" -> goodput/s
	for _, row := range table.Rows {
		key := row[0] + "/" + row[1]
		goodput[key] = parse(t, row[3])
		if row[1] != "control" {
			// Every defended row (chaos included) must pass the
			// linearizability oracle.
			if row[len(row)-1] != "ok" {
				t.Fatalf("row %v failed the linearizability check", row)
			}
			// ...and keep sheds flowing past saturation.
			if mult := parse(t, row[0]); mult > 1 && parse(t, strings.TrimSuffix(row[6], "%")) <= 0 {
				t.Fatalf("row %v: overloaded defended run shed nothing", row)
			}
		}
	}
	// Headline: defended goodput is flat past saturation (2x within 10%
	// of the best defended point), while the control run collapses.
	peak := 0.0
	for _, m := range []string{"0.5x", "1.0x", "1.5x", "2.0x"} {
		if g := goodput[m+"/admission"]; g > peak {
			peak = g
		}
	}
	if at2x := goodput["2.0x/admission"]; at2x < 0.9*peak {
		t.Fatalf("defended goodput at 2x = %.0f, below 90%% of peak %.0f", at2x, peak)
	}
	if ctrl, def := goodput["2.0x/control"], goodput["2.0x/admission"]; ctrl >= 0.5*def {
		t.Fatalf("control goodput %.0f did not collapse vs defended %.0f", ctrl, def)
	}
}

func TestETXNShapes(t *testing.T) {
	table := runAndCheck(t, ETXNTransactions)
	// 6 scenarios + the chaos-preset row.
	if len(table.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(table.Rows))
	}
	for _, row := range table.Rows {
		// Every row — the dirty-read one included, whose check asserts
		// the verdict flipped — must score ok, with locks and pending
		// transaction records drained to zero.
		if row[len(row)-1] != "ok" {
			t.Fatalf("row %v failed its invariant check", row)
		}
		if row[5] != "0" || row[6] != "0" {
			t.Fatalf("row %v left locks/pending behind", row)
		}
		if parse(t, row[1]) == 0 || parse(t, row[2]) == 0 {
			t.Fatalf("row %v recorded no ops or no commits", row)
		}
	}
	// The coordinator-crash and chaos-preset scenarios must actually have
	// exercised recovery.
	recovered := map[string]float64{}
	for _, row := range table.Rows {
		recovered[row[0]] = parse(t, row[4])
	}
	if recovered["coord-crash"] == 0 {
		t.Fatal("coord-crash scenario recovered no transactions")
	}
	if recovered["chaos-preset"] == 0 {
		t.Fatal("chaos-preset scenario recovered no transactions")
	}
	// The gray cut must have deposed a leader (its row is FAIL otherwise).
	var stepDowns float64
	for _, o := range table.Obs {
		if rest, ok := strings.CutPrefix(o, "gray-leader-cut: "); ok {
			stepDowns = parse(t, strings.Fields(rest)[0])
		}
	}
	if stepDowns < 1 {
		t.Fatalf("gray-leader-cut recorded no step-down: %v", table.Obs)
	}
}

func TestESQLShapes(t *testing.T) {
	table := runAndCheck(t, ESQLPlanner)
	// 8 suite queries + the chaos-crash replay.
	if len(table.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(table.Rows))
	}
	byID := map[string][]string{}
	for _, row := range table.Rows {
		if row[len(row)-1] != "ok" {
			t.Fatalf("row %v failed its oracle check", row)
		}
		byID[row[0]] = row
	}
	// Cost-based join strategy: the small product dimension broadcasts,
	// the fact-to-fact shipments join shuffles.
	if got := byID["q3_dim_join"][2]; got != "1bc" {
		t.Fatalf("q3_dim_join joins = %q, want 1bc", got)
	}
	if got := byID["q5_fact_fact"][2]; got != "1sh" {
		t.Fatalf("q5_fact_fact joins = %q, want 1sh", got)
	}
	// Pushdown must shrink the decoded bytes on the projection-friendly
	// scan query, and skip encoded bytes outright.
	q1 := byID["q1_pushdown"]
	if parse(t, q1[6]) >= parse(t, q1[5]) {
		t.Fatalf("q1_pushdown decoded opt %s not below naive %s", q1[6], q1[5])
	}
	if parse(t, q1[7]) == 0 {
		t.Fatal("q1_pushdown skipped no encoded bytes")
	}
	// The chaos replay must have injected its events.
	var sawChaos bool
	for _, o := range table.Obs {
		if strings.HasPrefix(o, "chaos: 2/2 events applied") {
			sawChaos = true
		}
	}
	if !sawChaos {
		t.Fatalf("chaos events not applied: %v", table.Obs)
	}
}

func TestEGRAYShapes(t *testing.T) {
	table := runAndCheck(t, EGRAYGrayFailures)
	// Small scale: 3 schedules x {control, defended} x 1 seed + 1
	// ha-register linearizability row.
	if len(table.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(table.Rows))
	}
	unavail := map[string]float64{} // "schedule/mode" -> charged unavailable ticks
	termDelta := map[string]float64{}
	for _, row := range table.Rows {
		if row[len(row)-1] != "ok" {
			t.Fatalf("row %v failed its verdict", row)
		}
		if row[0] == "ha-register" {
			if parse(t, row[9]) < 1 {
				t.Fatalf("row %v: gray cuts produced no ha step-down", row)
			}
			continue
		}
		key := row[0] + "/" + row[1]
		unavail[key] = parse(t, row[7])
		termDelta[key] = parse(t, row[8])
	}
	// Headline: the one-way control livelocks (terms inflate, proposals
	// fail with a connected majority present the whole run) while the
	// defended cluster rides it out untouched.
	if termDelta["one-way/control"] < 4 {
		t.Fatalf("one-way control term growth = %v, want >= 4", termDelta["one-way/control"])
	}
	if unavail["one-way/control"] < 10 {
		t.Fatalf("one-way control unavailable = %v, want >= 10", unavail["one-way/control"])
	}
	if unavail["one-way/defended"] != 0 || termDelta["one-way/defended"] != 0 {
		t.Fatalf("one-way defended not clean: unavail %v, term growth %v",
			unavail["one-way/defended"], termDelta["one-way/defended"])
	}
	// The partial partition must also cost the control measurably more
	// than the defended run.
	if unavail["partial/control"] <= 2*unavail["partial/defended"] {
		t.Fatalf("partial: control %v not clearly worse than defended %v",
			unavail["partial/control"], unavail["partial/defended"])
	}
}

// TestParamsOverride drives the four experiments that read overrides
// through Params alone: one seed and one schedule in, the
// single-schedule/single-seed table out, every recorded check ok.
func TestParamsOverride(t *testing.T) {
	const oneWay = "4 link-cut 0-3 4\n154 link-heal 0-3 4\n"
	for _, tc := range []struct {
		id       string
		run      func(Params) *Table
		p        Params
		rows     int
		schedule int // column holding the schedule name
		seedCol  int // column holding the seed, or -1 when it is in the note
	}{
		// clean + custom x speculation off/on
		{"EFT", EFTChaos, Params{Seed: 5, Chaos: "crash", FailProb: 0.01}, 3, 0, -1},
		// one interval x one schedule
		{"E-SFT", ESFTStream, Params{Seed: 5, Chaos: "stream", CkptInterval: 700}, 1, 1, -1},
		{"E-HA", EHAControlPlane, Params{Seed: 5, Chaos: "2 nn-crash leader"}, 1, 0, 1},
		// control + defended + the ha-register row
		{"E-GRAY", EGRAYGrayFailures, Params{Seed: 5, Chaos: oneWay}, 3, 0, 2},
	} {
		t.Run(tc.id, func(t *testing.T) {
			table := checkTable(t, tc.run(tc.p))
			if len(table.Rows) != tc.rows {
				t.Fatalf("rows = %d, want %d: %v", len(table.Rows), tc.rows, table.Rows)
			}
			custom := 0
			for _, row := range table.Rows {
				if row[tc.schedule] == "custom" {
					custom++
				}
				if tc.seedCol >= 0 && row[tc.seedCol] != "5" {
					t.Fatalf("row %v ran under seed %s, want 5", row, row[tc.seedCol])
				}
			}
			if custom == 0 {
				t.Fatalf("no row ran the custom schedule: %v", table.Rows)
			}
			if tc.seedCol < 0 && !strings.Contains(table.Note, "seed 5") {
				t.Fatalf("note %q does not name seed 5", table.Note)
			}
			if len(table.Checks) < tc.rows {
				t.Fatalf("%d checks for %d rows", len(table.Checks), tc.rows)
			}
			for _, d := range table.Checks {
				if !d.OK {
					t.Fatalf("check failed: %s", d)
				}
			}
		})
	}
}

// TestExperimentsShareNoState runs two check-recording experiments at
// once: each table's Checks must be exactly its own verdicts, its rows'
// in row order — what a process-wide harness could not give. A faulted
// row's verdict on its schedule follows the row's own.
func TestExperimentsShareNoState(t *testing.T) {
	runs := []struct {
		run    func(Params) *Table
		prefix string
		table  *Table
	}{
		{run: EFTChaos, prefix: "EFT/"},
		{run: ETXNTransactions, prefix: "E-TXN/"},
	}
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i].table = runs[i].run(Params{})
		}(i)
	}
	wg.Wait()
	for _, r := range runs {
		table := checkTable(t, r.table)
		var rowChecks []check.Diff
		for _, d := range table.Checks {
			if !strings.HasPrefix(d.Name, r.prefix) {
				t.Fatalf("%s recorded a foreign check %q", table.ID, d.Name)
			}
			if !strings.HasSuffix(d.Name, "/faults") {
				rowChecks = append(rowChecks, d)
			}
		}
		if len(rowChecks) != len(table.Rows) {
			t.Fatalf("%s: %d checks for %d rows", table.ID, len(rowChecks), len(table.Rows))
		}
		for i, d := range rowChecks {
			if got := table.Rows[i][len(table.Cols)-1]; got != verdictCell(d) {
				t.Fatalf("%s row %d shows %q, its check says %q", table.ID, i, got, verdictCell(d))
			}
		}
	}
}
