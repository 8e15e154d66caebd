package sched

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/topology"
)

func simpleJob(id int, arrival time.Duration, tasks int, dur time.Duration) JobSpec {
	j := JobSpec{ID: id, Arrival: arrival}
	for i := 0; i < tasks; i++ {
		j.Tasks = append(j.Tasks, TaskSpec{Duration: dur})
	}
	return j
}

func TestSingleJobMakespan(t *testing.T) {
	// 8 tasks of 1s on 2 nodes x 2 slots = 4 parallel → 2s makespan.
	res := Run(Config{
		Topology:     topology.Single(2),
		SlotsPerNode: 2,
		Policy:       FIFO{},
	}, []JobSpec{simpleJob(0, 0, 8, time.Second)})
	if res.Makespan != 2*time.Second {
		t.Fatalf("makespan = %v, want 2s", res.Makespan)
	}
	if res.JobCompletion[0] != 2*time.Second {
		t.Fatalf("job completion = %v", res.JobCompletion[0])
	}
}

func TestArrivalRespected(t *testing.T) {
	res := Run(Config{
		Topology:     topology.Single(1),
		SlotsPerNode: 1,
		Policy:       FIFO{},
	}, []JobSpec{simpleJob(0, 5*time.Second, 1, time.Second)})
	if res.Makespan != 6*time.Second {
		t.Fatalf("makespan = %v, want 6s", res.Makespan)
	}
	if res.JobCompletion[0] != time.Second {
		t.Fatalf("job time = %v, want 1s after arrival", res.JobCompletion[0])
	}
}

func TestFIFOHeadOfLineBlocking(t *testing.T) {
	// A long job ahead of a short job: FIFO makes the short job wait;
	// Fair gives it a share of slots immediately.
	top := topology.Single(2)
	jobs := []JobSpec{
		simpleJob(0, 0, 16, time.Second),               // long
		simpleJob(1, time.Millisecond, 2, time.Second), // short
	}
	fifo := Run(Config{Topology: top, SlotsPerNode: 2, Policy: FIFO{}}, jobs)
	fair := Run(Config{Topology: top, SlotsPerNode: 2, Policy: Fair{}}, jobs)
	if fair.JobCompletion[1] >= fifo.JobCompletion[1] {
		t.Fatalf("fair did not help the short job: fair=%v fifo=%v",
			fair.JobCompletion[1], fifo.JobCompletion[1])
	}
	if fair.Fairness < fifo.Fairness {
		t.Fatalf("fair fairness %v < fifo %v", fair.Fairness, fifo.Fairness)
	}
}

func TestAllTasksRun(t *testing.T) {
	top := topology.TwoTier(2, 2, 1)
	gen := rng.New(3)
	var jobs []JobSpec
	total := 0
	for j := 0; j < 5; j++ {
		nt := 1 + gen.Intn(6)
		total += nt
		jobs = append(jobs, simpleJob(j, time.Duration(gen.Intn(3))*time.Second, nt, time.Duration(1+gen.Intn(4))*time.Second))
	}
	for _, p := range []Policy{FIFO{}, Fair{}, Capacity{}, Delay{}} {
		res := Run(Config{Topology: top, SlotsPerNode: 2, Policy: p}, jobs)
		ran := res.NodeLocal + res.RackLocal + res.RemoteRun + res.NoPreference
		if ran != total {
			t.Fatalf("%s: ran %d tasks, want %d", p.Name(), ran, total)
		}
		for i, jt := range res.JobCompletion {
			if jt <= 0 {
				t.Fatalf("%s: job %d has nonpositive completion %v", p.Name(), i, jt)
			}
		}
	}
}

func localityJobs(top *topology.Topology, n int, gen *rng.RNG) []JobSpec {
	var jobs []JobSpec
	for j := 0; j < n; j++ {
		job := JobSpec{ID: j, Arrival: time.Duration(j) * 100 * time.Millisecond}
		for t := 0; t < 6; t++ {
			pref := topology.NodeID(gen.Intn(top.Size()))
			job.Tasks = append(job.Tasks, TaskSpec{
				Duration:  time.Second,
				Preferred: []topology.NodeID{pref},
			})
		}
		jobs = append(jobs, job)
	}
	return jobs
}

func TestDelaySchedulingImprovesLocality(t *testing.T) {
	top := topology.TwoTier(2, 4, 2)
	jobs := localityJobs(top, 12, rng.New(7))
	fair := Run(Config{Topology: top, SlotsPerNode: 1, Policy: Fair{}}, jobs)
	delay := Run(Config{Topology: top, SlotsPerNode: 1, Policy: Delay{MaxSkips: 8}}, jobs)
	if delay.LocalityRate() <= fair.LocalityRate() {
		t.Fatalf("delay locality %.2f <= fair locality %.2f",
			delay.LocalityRate(), fair.LocalityRate())
	}
	// Delay scheduling must not blow up the makespan (< 50% worse).
	if float64(delay.Makespan) > 1.5*float64(fair.Makespan) {
		t.Fatalf("delay makespan %v vs fair %v", delay.Makespan, fair.Makespan)
	}
}

func TestCapacityQueues(t *testing.T) {
	// Two queues, 75/25 split. Both submit identical workloads at t=0;
	// the production queue should finish its jobs sooner on average.
	top := topology.Single(4)
	var jobs []JobSpec
	for i := 0; i < 4; i++ {
		j := simpleJob(i, 0, 8, time.Second)
		if i%2 == 0 {
			j.Queue = "prod"
		} else {
			j.Queue = "batch"
		}
		jobs = append(jobs, j)
	}
	res := Run(Config{
		Topology:     top,
		SlotsPerNode: 1,
		Policy:       Capacity{Shares: map[string]float64{"prod": 0.75, "batch": 0.25}},
	}, jobs)
	prodAvg := (res.JobCompletion[0] + res.JobCompletion[2]) / 2
	batchAvg := (res.JobCompletion[1] + res.JobCompletion[3]) / 2
	if prodAvg >= batchAvg {
		t.Fatalf("prod avg %v not faster than batch avg %v under 75/25 split", prodAvg, batchAvg)
	}
}

func TestLocalityPenaltyAppliedToMakespan(t *testing.T) {
	// One task preferring node 0 but forced onto another rack runs longer.
	top := topology.TwoTier(2, 1, 1) // 2 nodes, different racks
	job := JobSpec{ID: 0, Tasks: []TaskSpec{
		{Duration: time.Second, Preferred: []topology.NodeID{0}},
		{Duration: time.Second, Preferred: []topology.NodeID{0}},
	}}
	res := Run(Config{
		Topology:      top,
		SlotsPerNode:  1,
		Policy:        FIFO{},
		RemotePenalty: 2.0,
	}, []JobSpec{job})
	// One task runs on node 0 (1s), one remote on node 1 (2s).
	if res.Makespan != 2*time.Second {
		t.Fatalf("makespan = %v, want 2s with remote penalty", res.Makespan)
	}
	if res.NodeLocal != 1 || res.RemoteRun != 1 {
		t.Fatalf("locality counts = local %d remote %d", res.NodeLocal, res.RemoteRun)
	}
}

func TestFairnessIndexBounds(t *testing.T) {
	top := topology.Single(2)
	gen := rng.New(11)
	var jobs []JobSpec
	for j := 0; j < 8; j++ {
		jobs = append(jobs, simpleJob(j, time.Duration(gen.Intn(5))*time.Second, 1+gen.Intn(8), time.Second))
	}
	for _, p := range []Policy{FIFO{}, Fair{}} {
		res := Run(Config{Topology: top, SlotsPerNode: 2, Policy: p}, jobs)
		if res.Fairness <= 0 || res.Fairness > 1.0001 {
			t.Fatalf("%s: Jain index %v out of (0,1]", p.Name(), res.Fairness)
		}
	}
}

func TestEmptyJobList(t *testing.T) {
	res := Run(Config{Topology: topology.Single(1), Policy: Fair{}}, nil)
	if res.Makespan != 0 || len(res.JobCompletion) != 0 {
		t.Fatalf("empty run: %+v", res)
	}
}

func TestDeterministic(t *testing.T) {
	top := topology.TwoTier(2, 2, 1)
	jobs := localityJobs(top, 6, rng.New(13))
	a := Run(Config{Topology: top, SlotsPerNode: 2, Policy: Delay{}}, jobs)
	b := Run(Config{Topology: top, SlotsPerNode: 2, Policy: Delay{}}, jobs)
	if a.Makespan != b.Makespan || a.NodeLocal != b.NodeLocal {
		t.Fatal("same inputs produced different schedules")
	}
}

// TestRunMatchesParent pins every policy's schedule to the commit its
// constant was recorded on: makespan, each job's completion and the
// locality counts. TestDeterministic only asks two runs to agree; this
// one fails when a change moves any placement.
func TestRunMatchesParent(t *testing.T) {
	top := topology.TwoTier(2, 2, 1)
	jobs := localityJobs(top, 6, rng.New(13))
	for _, c := range []struct {
		policy Policy
		want   uint64
	}{
		{FIFO{}, 0x3ea04ed5bdad4b53},
		{Fair{}, 0xbcdd53aebddcdf3e},
		{Capacity{}, 0x3ea04ed5bdad4b53},
		{Delay{}, 0x5a82c47420e46866},
	} {
		res := Run(Config{Topology: top, SlotsPerNode: 2, Policy: c.policy}, jobs)
		h := fnv.New64a()
		word := func(v int64) { _, _ = h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v))) }
		word(int64(res.Makespan))
		for _, jt := range res.JobCompletion {
			word(int64(jt))
		}
		for _, n := range []int{res.NodeLocal, res.RackLocal, res.RemoteRun, res.NoPreference} {
			word(int64(n))
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: digest %#x, want %#x", c.policy.Name(), got, c.want)
		}
	}
}

func BenchmarkFairScheduler(b *testing.B) {
	top := topology.TwoTier(4, 4, 2)
	jobs := localityJobs(top, 50, rng.New(17))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Run(Config{Topology: top, SlotsPerNode: 2, Policy: Fair{}}, jobs)
	}
}
