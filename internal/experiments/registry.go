package experiments

import (
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Params is an experiment's only input; the zero value runs every
// experiment at Small scale with its default seeds and sweeps.
type Params struct {
	Scale Scale
	// Seed replaces the experiment's default seed (EFT, E-SFT) or its
	// seed sweep (E-HA, E-GRAY) when nonzero.
	Seed uint64
	// Chaos replaces the experiment's schedule sweep with one "custom"
	// schedule: a preset name or schedule text, resolved against the
	// experiment's own cluster size.
	Chaos string
	// FailProb is EFT's global transient task failure probability.
	FailProb float64
	// CkptInterval replaces E-SFT's checkpoint-interval sweep when > 0.
	CkptInterval int
	// Obs receives what the run records; nil sinks are skipped.
	Obs Obs
}

// Obs is the set of sinks cmd/hpbdc-bench serves: a job-labeled merged
// registry for /metrics, a combined span recorder for /debug/trace and
// -trace-out, and a report store for /debug/jobs.
type Obs struct {
	Reg   *metrics.Registry
	Rec   *trace.Recorder
	Store *obs.ReportStore
}

// seedOr returns the seed override, or def when none was given.
func (p Params) seedOr(def uint64) uint64 {
	if p.Seed != 0 {
		return p.Seed
	}
	return def
}

// Runner is one experiment entry point. Overrides lists the Params
// fields beyond Scale and Obs that the experiment reads, under their
// hpbdc-bench flag names; setting any other has no effect on it.
type Runner struct {
	ID        string
	Name      string
	Run       func(Params) *Table
	Overrides []string
}

// All returns the full suite in order.
func All() []Runner {
	return []Runner{
		{ID: "E1", Name: "transport microbenchmark", Run: E1Transport},
		{ID: "E2", Name: "shuffle throughput", Run: E2Shuffle},
		{ID: "E3", Name: "terasort weak scaling", Run: E3TeraSort},
		{ID: "E4", Name: "wordcount dataflow vs mapreduce", Run: E4WordCount},
		{ID: "E5", Name: "kv quorum sweep", Run: E5KVQuorum},
		{ID: "E6", Name: "scheduler comparison", Run: E6Scheduler},
		{ID: "E7", Name: "stream load-latency", Run: E7Stream},
		{ID: "E8", Name: "pagerank strong scaling", Run: E8PageRank},
		{ID: "E9", Name: "fault recovery", Run: E9Recovery},
		{ID: "E10", Name: "parameter server modes", Run: E10ParamServer},
		{ID: "E11", Name: "autoscaling", Run: E11Autoscale},
		{ID: "E12", Name: "raft commit latency", Run: E12Raft},
		{ID: "EFT", Name: "fault tolerance under chaos", Run: EFTChaos,
			Overrides: []string{"seed", "chaos", "fail-prob"}},
		{ID: "E-SFT", Name: "streaming exactly-once fault tolerance", Run: ESFTStream,
			Overrides: []string{"seed", "chaos", "ckpt-interval"}},
		{ID: "E-HA", Name: "control-plane HA failover", Run: EHAControlPlane,
			Overrides: []string{"seed", "chaos"}},
		{ID: "E-OVL", Name: "overload admission control", Run: EOVLOverload},
		{ID: "E-TXN", Name: "sharded KV transactions under chaos", Run: ETXNTransactions},
		{ID: "E-GRAY", Name: "gray-failure availability", Run: EGRAYGrayFailures,
			Overrides: []string{"seed", "chaos"}},
		{ID: "E-SQL", Name: "sql planner differential suite", Run: ESQLPlanner},
	}
}
