package experiments

import (
	"strings"

	hpbdc "repro"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// observe analyzes one finished job context: the report is appended to the
// experiment's table (so tables include the per-stage breakdown and skew
// analysis) and everything is published to the sinks that are attached.
func (o Obs) observe(t *Table, job string, ctx *hpbdc.Context) {
	rep := ctx.Report(job)
	for _, line := range strings.Split(strings.TrimRight(rep.String(), "\n"), "\n") {
		t.AddObs(line)
	}
	if o.Store != nil {
		o.Store.Add(rep)
	}
	o.publish(job, ctx.Metrics(), ctx.Tracer())
}

// publish merges one run's counters, gauges and spans into the sinks
// under a "job" label. Histograms are skipped because their raw
// observations cannot be reconstructed from a snapshot.
func (o Obs) publish(job string, reg *metrics.Registry, rec *trace.Recorder) {
	if o.Reg != nil {
		snap := reg.Snapshot()
		for _, c := range snap.Counters {
			keys, vals := labelArgs(c.Labels, job)
			o.Reg.CounterVec(c.Name, keys...).With(vals...).Add(c.Value)
		}
		for _, g := range snap.Gauges {
			keys, vals := labelArgs(g.Labels, job)
			o.Reg.GaugeVec(g.Name, keys...).With(vals...).Set(g.Value)
		}
	}
	if o.Rec != nil {
		for _, s := range rec.Spans() {
			if s.Args == nil {
				s.Args = map[string]string{}
			}
			s.Args["job"] = job
			s.Track = job + "/" + s.Track
			o.Rec.Add(s)
		}
	}
}

// labelArgs appends the job label to a sample's own labels, returning
// parallel key and value slices for the vector API.
func labelArgs(labels []metrics.Label, job string) (keys, vals []string) {
	keys = make([]string, 0, len(labels)+1)
	vals = make([]string, 0, len(labels)+1)
	for _, l := range labels {
		keys = append(keys, l.Key)
		vals = append(vals, l.Value)
	}
	return append(keys, "job"), append(vals, job)
}
