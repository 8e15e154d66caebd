// The differ: compares a fresh result against a committed file field by
// field and names every one that moved. Every comparison is exact — a
// result is a pure function of the seed, so there is no noise to allow
// for. The byte comparison in TestCommittedBaselines is the gate; Diff is
// what turns a failed one into a list of fields a reader can act on.
package perf

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// Finding is one field that differs between baseline and current.
type Finding struct {
	// Field is the JSON path: "shape.records", "windows[3].p99_ns".
	Field string
	Msg   string
}

// Report is the outcome of one Diff call.
type Report struct {
	Family   string
	Findings []Finding // in file order: params, shape, metrics, windows
	// Checked counts the comparisons performed.
	Checked int
}

// OK reports whether the comparison passed.
func (r *Report) OK() bool { return len(r.Findings) == 0 }

// String renders the report for terminal output.
func (r *Report) String() string {
	if r.OK() {
		return fmt.Sprintf("perf[%s]: ok (%d fields checked)\n", r.Family, r.Checked)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "perf[%s]: %d finding(s) across %d fields:\n", r.Family, len(r.Findings), r.Checked)
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %s: %s\n", f.Field, f.Msg)
	}
	return b.String()
}

// check counts one comparison and records a finding unless same holds.
func (r *Report) check(same bool, field, format string, args ...any) {
	r.Checked++
	if !same {
		r.Findings = append(r.Findings, Finding{Field: field, Msg: fmt.Sprintf(format, args...)})
	}
}

// Diff compares cur against base: family, schema, every param, shape
// field and metric in both directions, the window count and every field
// of every window. A field present on only one side is a finding too — a
// vanished metric usually means a family silently stopped reporting it.
func Diff(base, cur *Result) *Report {
	rep := &Report{Family: cur.Family}
	rep.check(base.Family == cur.Family, "family", "baseline %q vs current %q", base.Family, cur.Family)
	rep.check(base.Schema == cur.Schema, "schema", "baseline %d vs current %d", base.Schema, cur.Schema)
	diffMap(rep, "params", base.Params, cur.Params)
	diffMap(rep, "shape", base.Shape, cur.Shape)
	diffMap(rep, "metrics", base.Metrics, cur.Metrics)

	rep.check(len(base.Windows) == len(cur.Windows), "windows",
		"baseline has %d windows, current %d", len(base.Windows), len(cur.Windows))
	for i := 0; i < len(base.Windows) && i < len(cur.Windows); i++ {
		bw, cw := reflect.ValueOf(base.Windows[i]), reflect.ValueOf(cur.Windows[i])
		for f := 0; f < bw.NumField(); f++ {
			bv, cv := bw.Field(f).Interface(), cw.Field(f).Interface()
			rep.check(bv == cv, fmt.Sprintf("windows[%d].%s", i, bw.Type().Field(f).Tag.Get("json")),
				"baseline %v vs current %v", bv, cv)
		}
	}
	return rep
}

// diffMap compares one of a result's maps key by key, both ways.
func diffMap[V comparable](rep *Report, section string, base, cur map[string]V) {
	for _, k := range sortedKeys(base) {
		cv, ok := cur[k]
		if !ok {
			rep.check(false, section+"."+k, "baseline %v, missing from current run", base[k])
			continue
		}
		rep.check(cv == base[k], section+"."+k, "baseline %v vs current %v", base[k], cv)
	}
	for _, k := range sortedKeys(cur) {
		if _, ok := base[k]; !ok {
			rep.check(false, section+"."+k, "current %v, absent from baseline", cur[k])
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
