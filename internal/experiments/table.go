// Package experiments implements the reconstructed evaluation suite
// E1..E12 described in DESIGN.md: each experiment is a function of its
// Params that returns a printable table and shares no state with any
// other run. cmd/hpbdc-bench prints the tables; the root bench_test.go
// wraps each in a testing.B benchmark.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/check"
)

// Table is one experiment's result, shaped like a paper table.
type Table struct {
	ID    string
	Title string
	Note  string
	Cols  []string
	Rows  [][]string
	// Obs holds observability annotations (job report lines: stage
	// breakdowns, stragglers, shuffle skew) printed after the rows.
	Obs []string
	// Checks holds every oracle verdict the run recorded, in row order.
	Checks []check.Diff
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddObs appends one observability annotation line.
func (t *Table) AddObs(line string) {
	t.Obs = append(t.Obs, line)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n%s: %s\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "  (%s)\n", t.Note)
	}
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(fmt.Sprintf("%-*s", widths[i], cell))
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(sb.String(), " "))
	}
	line(t.Cols)
	sep := make([]string, len(t.Cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, o := range t.Obs {
		fmt.Fprintf(w, "  | %s\n", o)
	}
}

// Scale selects experiment sizes: Small keeps every experiment under a few
// hundred milliseconds (CI and testing.B); Full runs the sizes the
// EXPERIMENTS.md tables report.
type Scale int

// Scales.
const (
	Small Scale = iota
	Full
)

func pick[T any](s Scale, small, full T) T {
	if s == Full {
		return full
	}
	return small
}
