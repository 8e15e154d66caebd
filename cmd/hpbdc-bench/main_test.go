package main

import (
	"bytes"
	"strings"
	"testing"
)

// bench runs the CLI in-process and returns its exit code and streams.
func bench(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestUsageErrors pins the three things the CLI refuses instead of
// silently dropping: an ID the registry does not have, an override with
// no single experiment to apply to, and an override its experiment does
// not read. Each exits 2, names the offender and runs nothing.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		naming []string
	}{
		{"unknown id", []string{"-small", "-run", "E1,E99"}, []string{`"E99"`}},
		{"override needs one experiment", []string{"-small", "-run", "EFT,E-HA", "-chaos", "crash"}, []string{"-chaos", "exactly one"}},
		{"override not read", []string{"-small", "-run", "E5", "-chaos", "crash"}, []string{"-chaos", "E5"}},
		{"override without -run", []string{"-small", "-seed", "3"}, []string{"-seed", "exactly one"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := bench(tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr)
			}
			if stdout != "" {
				t.Fatalf("ran something before refusing:\n%s", stdout)
			}
			for _, want := range tc.naming {
				if !strings.Contains(stderr, want) {
					t.Fatalf("stderr %q does not name %s", stderr, want)
				}
			}
		})
	}
}

// TestOverridesReachTheirExperiment is the README's E-HA invocation: one
// seed-5 row under the given schedule, its oracle check and its schedule's
// check folded by -check.
func TestOverridesReachTheirExperiment(t *testing.T) {
	code, stdout, stderr := bench("-small", "-run", "E-HA", "-seed", "5", "-chaos", "2 nn-crash leader", "-check")
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout, stderr)
	}
	var rows []string
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "  custom ") {
			rows = append(rows, line)
		}
	}
	if len(rows) != 1 || strings.Fields(rows[0])[1] != "5" {
		t.Fatalf("want one custom row under seed 5, got %q", rows)
	}
	if !strings.Contains(stdout, "check: 2 oracle comparisons, all ok") {
		t.Fatalf("-check did not fold the table's two verdicts:\n%s", stdout)
	}
}

// TestCheckFoldsPrintedTables: E-TXN records one verdict per row, plus
// one on the chaos-preset row's schedule, and -check reports exactly those.
func TestCheckFoldsPrintedTables(t *testing.T) {
	code, stdout, stderr := bench("-small", "-run", "E-TXN", "-check")
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "check: 8 oracle comparisons, all ok") {
		t.Fatalf("want 8 comparisons:\n%s", stdout)
	}
}

// TestCheckWithoutOracle: -check over tables that record nothing fails,
// and the hint names every experiment that does record checks.
func TestCheckWithoutOracle(t *testing.T) {
	code, _, stderr := bench("-small", "-run", "E1", "-check")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	for _, id := range []string{"E2", "E3", "E4", "E8", "E9", "E10", "EFT", "E-SFT", "E-HA", "E-OVL", "E-TXN", "E-GRAY", "E-SQL", "E5"} {
		if !strings.Contains(stderr, id) {
			t.Fatalf("hint %q omits %s", stderr, id)
		}
	}
}
