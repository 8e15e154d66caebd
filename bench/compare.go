package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

func loadResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	rel := (b - a) / math.Abs(a)
	if d.Better == "higher" {
		rel = -rel
	}
	return rel
}

// verdict judges one workload x metric row.
//
// Two results of the same commit are an A/A pair: any difference is the
// benchmark's own run-to-run spread, so a difference wider than the bound
// in either direction is UNRESOLVED (nothing can be claimed on that row
// until the spread is brought down) -- except for metrics that are a pure
// function of the seed, which must agree and FAIL otherwise. Between two
// commits a worsening beyond the bound is a FAIL.
func verdict(d metricDef, a, b float64, sameCommit bool) string {
	w := worsening(d, a, b)
	if sameCommit {
		switch {
		case math.Abs(w) <= d.Bound:
			return "PASS"
		case d.Exact:
			return "FAIL"
		default:
			return "UNRESOLVED"
		}
	}
	if w > d.Bound {
		return "FAIL"
	}
	return "PASS"
}

// compareFiles prints, per workload x bounded metric, both values, the
// relative difference, the bound and the verdict. It refuses results that
// were not run with the same settings on the same inputs.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadResult(pathA)
	if err != nil {
		return err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return err
	}
	ea, eb := a.Env, b.Env
	if ea.Seed != eb.Seed || ea.Scale != eb.Scale || ea.Seconds != eb.Seconds || ea.GOMAXPROCS != eb.GOMAXPROCS || ea.Trace != eb.Trace {
		return fmt.Errorf("refusing to compare: settings differ (seed %d/%d, scale %g/%g, seconds %g/%g, GOMAXPROCS %d/%d, trace %v/%v)",
			ea.Seed, eb.Seed, ea.Scale, eb.Scale, ea.Seconds, eb.Seconds, ea.GOMAXPROCS, eb.GOMAXPROCS, ea.Trace, eb.Trace)
	}
	if len(a.Workloads) != len(b.Workloads) {
		return fmt.Errorf("refusing to compare: %d workloads against %d", len(a.Workloads), len(b.Workloads))
	}
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		if wa.Workload != wb.Workload || wa.Fingerprint != wb.Fingerprint {
			return fmt.Errorf("refusing to compare: workload %s inputs %s against %s inputs %s",
				wa.Workload, wa.Fingerprint, wb.Workload, wb.Fingerprint)
		}
	}
	sameCommit := ea.GitRev == eb.GitRev && ea.GitRev != "unknown" && !strings.HasSuffix(ea.GitRev, "+dirty")
	kind := "parent vs change"
	if sameCommit {
		kind = "A/A, same commit"
	}
	fmt.Fprintf(w, "# %s (%s) vs %s (%s): %s\n", pathA, ea.GitRev, pathB, eb.GitRev, kind)
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")

	defs := endToEnd
	if ea.Trace {
		defs = nil
		for _, d := range perLayer {
			if d.Bound > 0 || d.Exact {
				defs = append(defs, d)
			}
		}
	}
	counts := map[string]int{}
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		for _, d := range defs {
			va, vb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			if va == 0 && vb == 0 && d.Name != "failed_ratio" {
				continue // does not apply to this workload
			}
			v := verdict(d, va, vb, sameCommit)
			counts[v]++
			fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				wa.Workload, d.Name, va, vb, worsening(d, va, vb)*100, d.Bound*100, v)
		}
	}
	fmt.Fprintf(w, "# %d PASS, %d UNRESOLVED, %d FAIL\n", counts["PASS"], counts["UNRESOLVED"], counts["FAIL"])
	if counts["FAIL"] > 0 {
		return fmt.Errorf("%d rows FAIL", counts["FAIL"])
	}
	return nil
}
