// Package sched simulates cluster task scheduling policies — FIFO, Fair,
// Capacity and delay scheduling — over a slot-based cluster in virtual
// time. Jobs are bags of tasks with data-locality preferences; running a
// task away from its data inflates its duration (rack/remote multipliers),
// which is exactly the trade-off delay scheduling navigates. Experiment E6
// compares makespan, mean job completion, fairness and locality rates
// across policies.
package sched

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/trace"
)

// TaskSpec is one task of a job.
type TaskSpec struct {
	// Duration is the task's run time when executed node-locally.
	Duration time.Duration
	// Preferred lists nodes holding the task's input (empty = no
	// preference, no penalty anywhere).
	Preferred []topology.NodeID
}

// JobSpec is a job submitted to the simulated cluster.
type JobSpec struct {
	ID      int
	Arrival time.Duration
	Tasks   []TaskSpec
	// Queue routes the job under the Capacity policy.
	Queue string
}

// rackPenalty multiplies task duration when the task runs rack-local to
// its preferred nodes rather than on one of them.
const rackPenalty = 1.15

// Config configures a simulation run.
type Config struct {
	Topology     *topology.Topology
	SlotsPerNode int
	Policy       Policy
	// RemotePenalty multiplies task duration when the task runs off the
	// racks of its preferred nodes (rackPenalty when it runs rack-local).
	// Default 1.6.
	RemotePenalty float64
	// Metrics, when non-nil, receives per-task counters labeled by policy
	// and locality (sched_tasks_by_locality) plus a task-duration
	// histogram. Optional.
	Metrics *metrics.Registry
	// Tracer, when non-nil, receives one virtual-time span per scheduled
	// task (track = executor node, stage arg = the job). Optional.
	Tracer *trace.Recorder
}

// Result summarizes a run.
type Result struct {
	Makespan time.Duration
	// JobCompletion maps job position (input order) to completion time
	// minus arrival.
	JobCompletion []time.Duration
	MeanJobTime   time.Duration
	// Locality counts tasks by where they ran relative to their data.
	NodeLocal, RackLocal, RemoteRun, NoPreference int
	// Fairness is Jain's index over per-job normalized service
	// (ideal/actual completion); 1 = perfectly fair.
	Fairness float64
}

// LocalityRate returns the fraction of placement-sensitive tasks that ran
// node-local.
func (r Result) LocalityRate() float64 {
	total := r.NodeLocal + r.RackLocal + r.RemoteRun
	if total == 0 {
		return 1
	}
	return float64(r.NodeLocal) / float64(total)
}

// jobState is the runtime view policies see.
type jobState struct {
	spec     JobSpec
	pos      int   // input order
	pending  []int // task indices not yet started
	running  int
	finished int
	skips    int // delay-scheduling skip count
	arrived  bool
	done     time.Duration
	idealSum time.Duration
}

// State is the scheduler-visible simulation state.
type State struct {
	jobs []*jobState
	top  *topology.Topology
}

// Jobs returns the indices of arrived jobs with pending tasks.
func (s *State) Jobs() []int {
	var out []int
	for i, j := range s.jobs {
		if j.arrived && len(j.pending) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// bestTaskOn returns the pending task of job j with the best locality on
// node n: node-local first, then rack-local, then anything. The returned
// locality is what that placement would be.
func (s *State) bestTaskOn(j *jobState, n topology.NodeID) (taskIdx int, loc topology.Locality) {
	bestIdx := -1
	bestLoc := topology.Remote + 1
	for _, ti := range j.pending {
		t := j.spec.Tasks[ti]
		loc := localityOf(s.top, t.Preferred, n)
		if loc < bestLoc {
			bestLoc = loc
			bestIdx = ti
			if loc == topology.LocalNode {
				break
			}
		}
	}
	return bestIdx, bestLoc
}

func localityOf(top *topology.Topology, preferred []topology.NodeID, n topology.NodeID) topology.Locality {
	if len(preferred) == 0 {
		return topology.LocalNode // no data to be far from
	}
	best := topology.Remote
	for _, p := range preferred {
		if l := top.LocalityOf(p, n); l < best {
			best = l
		}
	}
	return best
}

// Policy picks the next task for a freed slot. Implementations return the
// job index (into State.jobs) and task index, or (-1, -1) to leave the slot
// idle for now.
type Policy interface {
	Name() string
	Pick(s *State, node topology.NodeID) (jobIdx, taskIdx int)
}

// FIFO runs jobs strictly in arrival order (within a job, tasks pick their
// best-locality placement on the offered node).
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// Pick implements Policy.
func (FIFO) Pick(s *State, node topology.NodeID) (int, int) {
	candidates := s.Jobs()
	sort.Slice(candidates, func(a, b int) bool {
		ja, jb := s.jobs[candidates[a]], s.jobs[candidates[b]]
		if ja.spec.Arrival != jb.spec.Arrival {
			return ja.spec.Arrival < jb.spec.Arrival
		}
		return ja.pos < jb.pos
	})
	for _, ji := range candidates {
		if ti, _ := s.bestTaskOn(s.jobs[ji], node); ti >= 0 {
			return ji, ti
		}
	}
	return -1, -1
}

// Fair offers each slot to the job with the fewest running tasks — max-min
// fair sharing of slots.
type Fair struct{}

// Name implements Policy.
func (Fair) Name() string { return "fair" }

func fairOrder(s *State) []int {
	candidates := s.Jobs()
	sort.Slice(candidates, func(a, b int) bool {
		ja, jb := s.jobs[candidates[a]], s.jobs[candidates[b]]
		if ja.running != jb.running {
			return ja.running < jb.running
		}
		if ja.spec.Arrival != jb.spec.Arrival {
			return ja.spec.Arrival < jb.spec.Arrival
		}
		return ja.pos < jb.pos
	})
	return candidates
}

// Pick implements Policy.
func (Fair) Pick(s *State, node topology.NodeID) (int, int) {
	for _, ji := range fairOrder(s) {
		if ti, _ := s.bestTaskOn(s.jobs[ji], node); ti >= 0 {
			return ji, ti
		}
	}
	return -1, -1
}

// Capacity divides the cluster between named queues in fixed proportions,
// picking from the most underserved queue first (FIFO within a queue).
type Capacity struct {
	// Shares maps queue name to its capacity fraction; missing queues get
	// the "default" share or an equal split of the remainder.
	Shares map[string]float64
}

// Name implements Policy.
func (Capacity) Name() string { return "capacity" }

// Pick implements Policy.
func (c Capacity) Pick(s *State, node topology.NodeID) (int, int) {
	// Compute per-queue running counts and demand.
	type qstat struct {
		running int
		share   float64
		jobs    []int
	}
	queues := map[string]*qstat{}
	for i, j := range s.jobs {
		if !j.arrived {
			continue
		}
		q, ok := queues[j.spec.Queue]
		if !ok {
			q = &qstat{share: c.Shares[j.spec.Queue]}
			if q.share <= 0 {
				q.share = 0.01
			}
			queues[j.spec.Queue] = q
		}
		q.running += j.running
		if len(j.pending) > 0 {
			q.jobs = append(q.jobs, i)
		}
	}
	// Most underserved queue (running/share smallest) with pending work.
	var names []string
	for name, q := range queues {
		if len(q.jobs) > 0 {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(a, b int) bool {
		qa, qb := queues[names[a]], queues[names[b]]
		ra := float64(qa.running) / qa.share
		rb := float64(qb.running) / qb.share
		if ra != rb {
			return ra < rb
		}
		return names[a] < names[b]
	})
	for _, name := range names {
		jobs := queues[name].jobs
		sort.Slice(jobs, func(a, b int) bool {
			ja, jb := s.jobs[jobs[a]], s.jobs[jobs[b]]
			if ja.spec.Arrival != jb.spec.Arrival {
				return ja.spec.Arrival < jb.spec.Arrival
			}
			return ja.pos < jb.pos
		})
		for _, ji := range jobs {
			if ti, _ := s.bestTaskOn(s.jobs[ji], node); ti >= 0 {
				return ji, ti
			}
		}
	}
	return -1, -1
}

// Delay is delay scheduling (Zaharia et al., EuroSys'10) on top of fair
// ordering: a job declines up to MaxSkips scheduling opportunities that
// would run its tasks non-locally, waiting for a slot where its data lives.
type Delay struct {
	// MaxSkips is how many offers a job may decline. Default 8.
	MaxSkips int
}

// Name implements Policy.
func (Delay) Name() string { return "delay" }

// Pick implements Policy.
func (d Delay) Pick(s *State, node topology.NodeID) (int, int) {
	maxSkips := d.MaxSkips
	if maxSkips <= 0 {
		maxSkips = 8
	}
	for _, ji := range fairOrder(s) {
		j := s.jobs[ji]
		ti, loc := s.bestTaskOn(j, node)
		if ti < 0 {
			continue
		}
		if loc == topology.LocalNode {
			j.skips = 0
			return ji, ti
		}
		if j.skips >= maxSkips {
			j.skips = 0
			return ji, ti // waited long enough; accept non-local
		}
		j.skips++ // decline this offer, let the next job try
	}
	return -1, -1
}

// Run simulates the jobs to completion and returns the summary.
func Run(cfg Config, jobs []JobSpec) Result {
	if cfg.Topology == nil {
		panic("sched: Config.Topology required")
	}
	if cfg.SlotsPerNode <= 0 {
		cfg.SlotsPerNode = 2
	}
	if cfg.Policy == nil {
		cfg.Policy = FIFO{}
	}
	if cfg.RemotePenalty <= 0 {
		cfg.RemotePenalty = 1.6
	}

	state := &State{top: cfg.Topology}
	for i, spec := range jobs {
		js := &jobState{spec: spec, pos: i}
		for ti := range spec.Tasks {
			js.pending = append(js.pending, ti)
			js.idealSum += spec.Tasks[ti].Duration
		}
		state.jobs = append(state.jobs, js)
	}

	sim := des.New()
	freeSlots := make([]int, cfg.Topology.Size())
	for i := range freeSlots {
		freeSlots[i] = cfg.SlotsPerNode
	}
	res := Result{JobCompletion: make([]time.Duration, len(jobs))}

	// Optional instrumentation: all handles stay nil (and every update a
	// no-op) when cfg.Metrics is unset.
	var tasksByLocality *metrics.CounterVec
	var taskDur *metrics.Histogram
	if cfg.Metrics != nil {
		tasksByLocality = cfg.Metrics.CounterVec("sched_tasks_by_locality", "policy", "locality")
		taskDur = cfg.Metrics.Histogram("sched_task_duration_ns")
	}

	var dispatch func()
	dispatch = func() {
		progress := true
		for progress {
			progress = false
			for n := 0; n < cfg.Topology.Size(); n++ {
				node := topology.NodeID(n)
				for freeSlots[n] > 0 {
					ji, ti := cfg.Policy.Pick(state, node)
					if ji < 0 {
						break
					}
					j := state.jobs[ji]
					// Remove ti from pending.
					for k, v := range j.pending {
						if v == ti {
							j.pending = append(j.pending[:k], j.pending[k+1:]...)
							break
						}
					}
					t := j.spec.Tasks[ti]
					loc := localityOf(cfg.Topology, t.Preferred, node)
					dur := t.Duration
					locName := "none"
					if len(t.Preferred) == 0 {
						res.NoPreference++
					} else {
						switch loc {
						case topology.LocalNode:
							res.NodeLocal++
							locName = "local"
						case topology.LocalRack:
							res.RackLocal++
							locName = "rack"
							dur = time.Duration(float64(dur) * rackPenalty)
						default:
							res.RemoteRun++
							locName = "remote"
							dur = time.Duration(float64(dur) * cfg.RemotePenalty)
						}
					}
					tasksByLocality.With(cfg.Policy.Name(), locName).Inc()
					taskDur.ObserveDuration(dur)
					cfg.Tracer.Add(trace.Span{
						Name:     fmt.Sprintf("job%d t%d", j.spec.ID, ti),
						Category: "task",
						Track:    fmt.Sprintf("node-%02d", n),
						Start:    sim.Now(),
						Duration: dur,
						Args: map[string]string{
							"stage":    fmt.Sprintf("job %d", j.spec.ID),
							"locality": locName,
						},
					})
					j.running++
					freeSlots[n]--
					progress = true
					jiCopy, nCopy := ji, n
					sim.Schedule(dur, func() {
						jj := state.jobs[jiCopy]
						jj.running--
						jj.finished++
						freeSlots[nCopy]++
						if jj.finished == len(jj.spec.Tasks) {
							jj.done = sim.Now()
						}
						dispatch()
					})
				}
			}
		}
	}

	for i := range state.jobs {
		i := i
		sim.Schedule(state.jobs[i].spec.Arrival, func() {
			state.jobs[i].arrived = true
			dispatch()
		})
	}
	res.Makespan = sim.Run()

	// Summaries.
	var sumJob time.Duration
	var sumService, sumServiceSq float64
	totalSlots := cfg.Topology.Size() * cfg.SlotsPerNode
	for i, j := range state.jobs {
		jt := j.done - j.spec.Arrival
		res.JobCompletion[i] = jt
		sumJob += jt
		// Normalized service = ideal parallel runtime (the job alone on the
		// whole cluster) over actual runtime, in (0, 1]. Jain's index over
		// this captures how evenly the scheduler spread slowdown.
		var longest time.Duration
		for _, t := range j.spec.Tasks {
			if t.Duration > longest {
				longest = t.Duration
			}
		}
		ideal := j.idealSum / time.Duration(totalSlots)
		if longest > ideal {
			ideal = longest
		}
		service := float64(ideal) / float64(jt)
		if service > 1 {
			service = 1
		}
		sumService += service
		sumServiceSq += service * service
	}
	if len(jobs) > 0 {
		res.MeanJobTime = sumJob / time.Duration(len(jobs))
		if sumServiceSq > 0 {
			res.Fairness = sumService * sumService / (float64(len(jobs)) * sumServiceSq)
		}
	}
	return res
}
