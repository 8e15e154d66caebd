package experiments

import "repro/internal/check"

// recordCheck appends one oracle verdict to the table — hpbdc-bench
// -check folds the Checks of every table it printed and exits nonzero on
// any mismatch, so a chaos sweep cannot silently "pass" with wrong
// output — and returns it for chaining into a table cell.
func (t *Table) recordCheck(d check.Diff) check.Diff {
	t.Checks = append(t.Checks, d)
	return d
}

// verdictCell renders a Diff as a table cell.
func verdictCell(d check.Diff) string {
	if d.OK {
		return "ok"
	}
	return "FAIL"
}
