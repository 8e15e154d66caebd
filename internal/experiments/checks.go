package experiments

import (
	"repro/internal/chaos"
	"repro/internal/check"
)

// recordCheck appends one oracle verdict to the table — hpbdc-bench
// -check folds the Checks of every table it printed and exits nonzero on
// any mismatch, so a chaos sweep cannot silently "pass" with wrong
// output — and returns it for chaining into a table cell.
func (t *Table) recordCheck(d check.Diff) check.Diff {
	t.Checks = append(t.Checks, d)
	return d
}

// recordFaults appends the verdict on the fault schedule that drove one
// row: Compared counts the events that fired, and an event a target
// refused is a mismatch — a schedule that did not run is a failed
// experiment, whatever the row's output.
func (t *Table) recordFaults(job string, ctl *chaos.Controller) {
	d := check.Diff{Name: job + "/faults", OK: true, Compared: ctl.Applied()}
	if err := ctl.Err(); err != nil {
		d.OK, d.Details = false, []string{err.Error()}
	}
	t.recordCheck(d)
}

// finishFaults fires what is left of sched once the row's job is done,
// advancing ctl to the schedule's last tick, and records the verdict on
// every event: how far a job's own ticks carry the schedule depends on
// its timing (retries, speculation), and a fault that never fires is
// neither checked nor exercised.
func (t *Table) finishFaults(job string, ctl *chaos.Controller, sched chaos.Schedule) {
	var end int64
	for _, e := range sched {
		end = max(end, e.At)
	}
	ctl.AdvanceTo(end)
	t.recordFaults(job, ctl)
}

// verdictCell renders a Diff as a table cell.
func verdictCell(d check.Diff) string {
	if d.OK {
		return "ok"
	}
	return "FAIL"
}
