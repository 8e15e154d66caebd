package experiments

import (
	"fmt"
	"time"

	"repro/internal/elastic"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/workload"
)

// E6Scheduler compares FIFO, Fair, Capacity and delay scheduling on a
// mixed workload of large batch jobs and small interactive jobs with
// data-locality preferences.
func E6Scheduler(p Params) *Table {
	t := &Table{
		ID:    "E6",
		Title: "Cluster scheduling policies on a mixed batch/interactive workload",
		Note:  "16 nodes x 2 slots; remote tasks run 1.6x longer",
		Cols:  []string{"policy", "makespan", "mean-job", "small-job-mean", "node-local", "fairness"},
	}
	nJobs := pick(p.Scale, 24, 80)
	top := topology.TwoTier(4, 4, 2)
	gen := rng.New(6)
	var jobs []sched.JobSpec
	var smallIdx []int
	for j := 0; j < nJobs; j++ {
		job := sched.JobSpec{
			ID:      j,
			Arrival: time.Duration(gen.Intn(60)) * time.Second,
		}
		nt := 2 + gen.Intn(3) // small interactive
		if j%3 == 0 {
			nt = 16 + gen.Intn(16) // large batch
			job.Queue = "batch"
		} else {
			job.Queue = "interactive"
			smallIdx = append(smallIdx, j)
		}
		for k := 0; k < nt; k++ {
			job.Tasks = append(job.Tasks, sched.TaskSpec{
				Duration:  time.Duration(2+gen.Intn(8)) * time.Second,
				Preferred: []topology.NodeID{topology.NodeID(gen.Intn(top.Size()))},
			})
		}
		jobs = append(jobs, job)
	}
	policies := []sched.Policy{
		sched.FIFO{},
		sched.Fair{},
		sched.Capacity{Shares: map[string]float64{"interactive": 0.6, "batch": 0.4}},
		sched.Delay{MaxSkips: 8},
	}
	for _, p := range policies {
		res := sched.Run(sched.Config{
			Topology:     top,
			SlotsPerNode: 2,
			Policy:       p,
		}, jobs)
		var smallSum time.Duration
		for _, j := range smallIdx {
			smallSum += res.JobCompletion[j]
		}
		smallMean := smallSum / time.Duration(len(smallIdx))
		t.AddRow(p.Name(),
			res.Makespan.Round(time.Second).String(),
			res.MeanJobTime.Round(time.Second).String(),
			smallMean.Round(time.Second).String(),
			fmt.Sprintf("%.0f%%", 100*res.LocalityRate()),
			fmt.Sprintf("%.3f", res.Fairness))
	}
	return t
}

// E11Autoscale compares the utilization-targeting autoscaler against
// static provisioning baselines on a two-day diurnal trace, with and
// without spot preemptions.
func E11Autoscale(p Params) *Table {
	t := &Table{
		ID:    "E11",
		Title: "Elasticity: autoscaler vs static provisioning on a diurnal trace",
		Note:  "2 days at 5-minute steps, 100-1000 req/s cycle, 50 req/s per node",
		Cols:  []string{"strategy", "node-steps", "avg-util", "SLO-viol%", "peak-nodes", "preempted"},
	}
	steps := pick(p.Scale, 288, 576)
	trace := workload.DiurnalTrace(steps, 5*time.Minute, 100, 1000, 2.5, 11)
	cfg := elastic.Config{PerNodeCapacity: 50, Seed: 11}
	peak := elastic.PeakNodesFor(trace, 50, 0.65)

	add := func(name string, r elastic.Result) {
		t.AddRow(name,
			fmt.Sprintf("%d", r.NodeSteps),
			fmt.Sprintf("%.2f", r.AvgUtil),
			fmt.Sprintf("%.1f%%", 100*r.ViolationFrac),
			fmt.Sprintf("%d", r.PeakNodes),
			fmt.Sprintf("%d", r.Preemptions))
	}
	var meanRate float64
	for _, p := range trace {
		meanRate += p.Rate
	}
	meanRate /= float64(len(trace))
	meanNodes := int(meanRate/(50*0.65)) + 1
	add("peak-static", elastic.Static(trace, cfg, peak))
	add("mean-static", elastic.Static(trace, cfg, meanNodes))
	add("autoscaler", elastic.Simulate(trace, elastic.Config{
		PerNodeCapacity: 50,
		Policy:          elastic.Policy{TargetUtil: 0.65, Min: 2, Max: peak + 8},
		Seed:            11,
	}))
	add("autoscaler+spot", elastic.Simulate(trace, elastic.Config{
		PerNodeCapacity: 50,
		Policy:          elastic.Policy{TargetUtil: 0.65, Min: 2, Max: peak + 8},
		SpotPreemptProb: 0.005,
		Seed:            11,
	}))
	add("slo-p99", elastic.Simulate(trace, elastic.Config{
		PerNodeCapacity: 50,
		Policy:          elastic.Policy{Min: 2, Max: peak + 8, SLOTargetP99: 20 * time.Millisecond},
		Seed:            11,
	}))
	return t
}
