package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/dfs"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/serde"
	"repro/internal/shuffle"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Errors surfaced by the engine.
var (
	ErrNoLiveNodes      = errors.New("core: no live executor nodes")
	ErrJobAborted       = errors.New("core: job aborted after exhausting retries")
	ErrDeadlineExceeded = fmt.Errorf("core: job deadline exceeded: %w", admission.ErrDeadline)
	errInjected         = errors.New("core: injected task failure")
)

// fetchError reports that a reduce task could not fetch a map output:
// either its owner died (the signal that triggers lineage recomputation)
// or a network partition currently separates the reader from the owner
// (the data is intact; the retry loop waits for a heal).
type fetchError struct {
	planID      int
	mapPart     int
	unreachable bool
}

func (f *fetchError) Error() string {
	if f.unreachable {
		return fmt.Sprintf("core: shuffle %d map partition %d unreachable across network partition", f.planID, f.mapPart)
	}
	return fmt.Sprintf("core: fetch failed for shuffle %d map partition %d", f.planID, f.mapPart)
}

// ChaosTicker is the hook the chaos controller plugs into: the engine
// advances fault-schedule virtual time once per job attempt and once per
// scheduling wave, always from the driver thread, which keeps chaos runs
// reproducible. Satisfied by *chaos.Controller.
type ChaosTicker interface{ Tick() }

// Recovery and graceful-degradation constants.
const (
	// maxStageRetries bounds whole-job recovery rounds after fetch
	// failures.
	maxStageRetries = 8
	// speculationK is the straggler multiple over the median completed
	// task duration (matches the obs straggler detector).
	speculationK = 2
	// quarantineThreshold is how many task failures in a row a node may
	// accumulate before placement stops using it.
	quarantineThreshold = 3
	// quarantineWaves is how many scheduling waves a quarantined node sits
	// out before being given another chance.
	quarantineWaves = 8
)

// Config tunes the engine.
type Config struct {
	// Cluster supplies executors, topology and the network fabric; required.
	Cluster *cluster.Cluster
	// DFS is used for checkpoints; optional.
	DFS *dfs.DFS
	// Codec compresses shuffle blocks. Default compress.None.
	Codec compress.Codec
	// SpillThreshold is the shuffle writer spill level. Default 4 MiB.
	SpillThreshold int64
	// ForceSortShuffle routes even unsorted dependencies through the
	// sort-based writer (the E2 ablation knob).
	ForceSortShuffle bool
	// MaxTaskRetries bounds per-partition retry attempts. Default 4.
	MaxTaskRetries int
	// TaskFailProb injects transient task failures with this probability
	// (fault-tolerance experiments). Default 0.
	TaskFailProb float64
	// Seed drives fault injection and retry-backoff jitter.
	Seed uint64
	// Speculation enables backup launches for straggler tasks: once half a
	// wave has finished, any task running longer than
	// max(speculationK×median, SpeculationMin) gets a second copy on
	// another node and the first copy to succeed wins. Default off —
	// speculative timing is inherently racy, so deterministic-replay runs
	// leave it disabled.
	Speculation bool
	// SpeculationMin is the floor below which tasks are never considered
	// stragglers. Default 5ms.
	SpeculationMin time.Duration
	// RetryBackoff is the base delay before a retry wave; it doubles per
	// attempt with seeded jitter in [0.5, 1.5). Default 1ms; negative
	// disables backoff entirely.
	RetryBackoff time.Duration
	// MaxRetryBackoff caps the exponential growth. Default 50ms.
	MaxRetryBackoff time.Duration
	// Chaos, when non-nil, has Tick called once per job attempt and once
	// per scheduling wave from the driver thread (see ChaosTicker).
	Chaos ChaosTicker
	// Journal, when non-nil, records completed stages and checkpoints so a
	// coordinator crash (CrashCoordinator) resumes instead of recomputing.
	Journal Journal
}

// shuffleState tracks the materialized map outputs of one shuffled plan.
type shuffleState struct {
	mu      sync.Mutex
	dep     *ShuffleDep
	done    []bool
	owner   []topology.NodeID
	outputs [][]shuffle.Block // per map partition
}

// Engine executes plans. Safe for concurrent job submission, though the
// experiments drive one job at a time.
type Engine struct {
	cfg Config
	// Reg collects execution metrics: task counts, retries, shuffle bytes,
	// simulated network time (net_time_ns), fetch failures.
	Reg *metrics.Registry

	mu       sync.Mutex
	planSeq  int
	shuffles map[int]*shuffleState
	caches   map[int][][]Row
	ckptDone map[int]bool
	rand     *rng.RNG
	tracer   *trace.Recorder

	// Coordinator-crash state: exec outlives a crash (executors keep their
	// map outputs); everything keyed off e.shuffles/caches/ckptDone is
	// volatile driver memory and is wiped by recoverCoordinator.
	exec         *executorStore
	coordCrashed bool
	jobPlans     map[int]*Plan
	jobFPs       map[int]uint64

	// Graceful-degradation state, all driven from the driver thread.
	wave            int64                       // scheduling-wave counter
	nodeFails       map[topology.NodeID]int     // consecutive failure strikes
	quarantinedTill map[topology.NodeID]int64   // node -> wave when released
	nodeFailProb    map[topology.NodeID]float64 // chaos per-node flakiness
}

// SetTracer attaches an execution tracer; every task records a span on
// its executor's track. Pass nil to disable.
func (e *Engine) SetTracer(r *trace.Recorder) {
	e.mu.Lock()
	e.tracer = r
	e.mu.Unlock()
}

func (e *Engine) tracerRef() *trace.Recorder {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tracer
}

// NewEngine builds an engine over the given cluster.
func NewEngine(cfg Config) *Engine {
	if cfg.Cluster == nil {
		panic("core: Config.Cluster is required")
	}
	if cfg.Codec == nil {
		cfg.Codec = compress.None{}
	}
	if cfg.SpillThreshold <= 0 {
		cfg.SpillThreshold = 4 << 20
	}
	if cfg.MaxTaskRetries <= 0 {
		cfg.MaxTaskRetries = 4
	}
	if cfg.SpeculationMin <= 0 {
		cfg.SpeculationMin = 5 * time.Millisecond
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	if cfg.MaxRetryBackoff <= 0 {
		cfg.MaxRetryBackoff = 50 * time.Millisecond
	}
	return &Engine{
		cfg:             cfg,
		Reg:             metrics.NewRegistry(),
		shuffles:        map[int]*shuffleState{},
		caches:          map[int][][]Row{},
		ckptDone:        map[int]bool{},
		exec:            newExecutorStore(),
		rand:            rng.New(cfg.Seed),
		nodeFails:       map[topology.NodeID]int{},
		quarantinedTill: map[topology.NodeID]int64{},
		nodeFailProb:    map[topology.NodeID]float64{},
	}
}

// SetNodeFailProb sets the transient-failure probability for tasks placed
// on one node (the chaos "flaky" event; p <= 0 clears it). The effective
// probability for a task is max(Config.TaskFailProb, its node's value).
func (e *Engine) SetNodeFailProb(n topology.NodeID, p float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p <= 0 {
		delete(e.nodeFailProb, n)
	} else {
		e.nodeFailProb[n] = p
	}
}

// Cluster returns the engine's cluster.
func (e *Engine) Cluster() *cluster.Cluster { return e.cfg.Cluster }

func (e *Engine) nextPlanID() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.planSeq++
	return e.planSeq
}

// Run computes every partition of p and returns them in order. On task or
// node failure it retries tasks and recomputes lost lineage, up to the
// configured bounds.
func (e *Engine) Run(p *Plan) ([][]Row, error) {
	return e.RunCtx(context.Background(), p)
}

// RunCtx is Run bounded by a context: cancellation stops retries promptly
// and the job aborts cleanly, leaving the metrics registry consistent so a
// partial report can still be cut. Past the context's deadline the error
// is ErrDeadlineExceeded.
func (e *Engine) RunCtx(ctx context.Context, p *Plan) ([][]Row, error) {
	e.setJobPlans(p)
	// The job root span opens a fresh trace; stages (and through them
	// tasks, fetches, journal appends) parent under it via the context,
	// so one RunCtx = one cross-node trace id.
	endJob, jobTC := e.tracerRef().BeginCtx(
		fmt.Sprintf("job p%d", p.id), "job", "driver", trace.TraceContext{})
	out, err := e.runJob(withJobTrace(ctx, jobTC), p)
	outcome := "ok"
	if err != nil {
		outcome = err.Error()
	}
	endJob(map[string]string{"outcome": outcome})
	return out, err
}

// runJob is RunCtx's retry loop, split out so the job span cleanly
// brackets it.
func (e *Engine) runJob(ctx context.Context, p *Plan) ([][]Row, error) {
	var lastErr error
	for attempt := 0; attempt <= maxStageRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, e.abortErr(err, lastErr)
		}
		e.tickChaos()
		e.recoverCoordinator(p)
		if err := e.ensure(ctx, p, map[int]bool{}); err != nil {
			if ctx.Err() != nil {
				return nil, e.abortErr(ctx.Err(), err)
			}
			if e.recoverable(err) {
				lastErr = err
				continue
			}
			return nil, err
		}
		out, err := e.runResult(ctx, p)
		if err == nil {
			return out, nil
		}
		if ctx.Err() != nil {
			return nil, e.abortErr(ctx.Err(), err)
		}
		if !e.recoverable(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w: %v", ErrJobAborted, lastErr)
}

// jobTraceKey carries the running job's TraceContext through the
// context.Context already threaded into every stage runner, so causal
// linkage needs no extra plumbing through ensure's recursion.
type jobTraceKeyType struct{}

var jobTraceKey jobTraceKeyType

func withJobTrace(ctx context.Context, tc trace.TraceContext) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, jobTraceKey, tc)
}

func jobTraceFrom(ctx context.Context) trace.TraceContext {
	tc, _ := ctx.Value(jobTraceKey).(trace.TraceContext)
	return tc
}

// abortErr converts a context error into the engine's abort error,
// counting deadline aborts so the partial job report shows why it ended.
func (e *Engine) abortErr(ctxErr, lastErr error) error {
	if errors.Is(ctxErr, context.DeadlineExceeded) {
		e.Reg.Counter("jobs_deadline_aborted").Inc()
		if lastErr != nil {
			return fmt.Errorf("%w (last failure: %v)", ErrDeadlineExceeded, lastErr)
		}
		return ErrDeadlineExceeded
	}
	return ctxErr
}

// SetChaos attaches a chaos ticker after construction. The chaos
// controller targets the engine for fault injection, so the two cannot be
// built in one shot; hosts build the engine, then the controller, then
// call SetChaos before submitting jobs.
func (e *Engine) SetChaos(t ChaosTicker) {
	e.mu.Lock()
	e.cfg.Chaos = t
	e.mu.Unlock()
}

// tickChaos advances fault-schedule virtual time; always called from the
// driver thread so chaos runs replay deterministically.
func (e *Engine) tickChaos() {
	e.mu.Lock()
	t := e.cfg.Chaos
	e.mu.Unlock()
	if t != nil {
		t.Tick()
	}
}

// Collect flattens Run's output.
func (e *Engine) Collect(p *Plan) ([]Row, error) {
	parts, err := e.Run(p)
	if err != nil {
		return nil, err
	}
	var out []Row
	for _, rows := range parts {
		out = append(out, rows...)
	}
	return out, nil
}

// Count returns the total number of rows of p.
func (e *Engine) Count(p *Plan) (int64, error) {
	parts, err := e.Run(p)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, rows := range parts {
		n += int64(len(rows))
	}
	return n, nil
}

// recoverable reports whether err warrants retry. A dead-owner fetch
// failure invalidates the lost map outputs as a side effect; a
// partition-blocked fetch leaves them intact (the data still exists — the
// retry loop just has to outlast the partition).
func (e *Engine) recoverable(err error) bool {
	var fe *fetchError
	if errors.As(err, &fe) {
		if fe.unreachable {
			return true
		}
		e.invalidateMapOutput(fe.planID, fe.mapPart)
		e.Reg.Counter("fetch_failures").Inc()
		return true
	}
	return errors.Is(err, cluster.ErrNodeDead) || errors.Is(err, errInjected) ||
		errors.Is(err, errCoordCrashed)
}

func (e *Engine) invalidateMapOutput(planID, mapPart int) {
	e.mu.Lock()
	st := e.shuffles[planID]
	e.mu.Unlock()
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if mapPart >= 0 && mapPart < len(st.done) {
		st.done[mapPart] = false
		st.outputs[mapPart] = nil
		e.exec.drop(planID, mapPart)
	}
	// Also drop every output owned by now-dead nodes; one fetch failure
	// usually means the node lost all its blocks.
	for i, owner := range st.owner {
		if st.done[i] {
			if n, err := e.cfg.Cluster.Node(owner); err == nil && !n.Alive() {
				st.done[i] = false
				st.outputs[i] = nil
				e.exec.drop(planID, i)
			}
		}
	}
}

// ensure materializes every shuffle boundary in p's subtree.
func (e *Engine) ensure(ctx context.Context, p *Plan, visited map[int]bool) error {
	if visited[p.id] {
		return nil
	}
	visited[p.id] = true
	if e.isCheckpointed(p) || e.fullyCached(p) {
		return nil
	}
	switch p.kind {
	case kindSource:
		return nil
	case kindNarrow:
		return e.ensure(ctx, p.parent, visited)
	case kindUnion:
		for _, parent := range p.parents {
			if err := e.ensure(ctx, parent, visited); err != nil {
				return err
			}
		}
		return nil
	case kindShuffled:
		if err := e.ensure(ctx, p.parent, visited); err != nil {
			return err
		}
		return e.runMapStage(ctx, p)
	default:
		panic("core: unknown plan kind")
	}
}

func (e *Engine) isCheckpointed(p *Plan) bool {
	if p.checkpoint == nil {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ckptDone[p.id]
}

func (e *Engine) fullyCached(p *Plan) bool {
	if !p.cache {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	parts, ok := e.caches[p.id]
	if !ok {
		return false
	}
	for _, rows := range parts {
		if rows == nil {
			return false
		}
	}
	return true
}

func (e *Engine) shuffleStateFor(p *Plan) *shuffleState {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.shuffles[p.id]
	if !ok {
		n := p.parent.parts
		st = &shuffleState{
			dep:     p.dep,
			done:    make([]bool, n),
			owner:   make([]topology.NodeID, n),
			outputs: make([][]shuffle.Block, n),
		}
		e.shuffles[p.id] = st
	}
	return st
}

// runMapStage computes missing map outputs for shuffled plan p.
func (e *Engine) runMapStage(ctx context.Context, p *Plan) error {
	st := e.shuffleStateFor(p)
	st.mu.Lock()
	var pending []int
	for i, done := range st.done {
		if !done {
			pending = append(pending, i)
		}
	}
	st.mu.Unlock()
	if len(pending) == 0 {
		return nil
	}
	shuffleID := strconv.Itoa(p.id)
	partBytes := e.Reg.CounterVec("shuffle_partition_bytes", "shuffle", "partition")
	partRecords := e.Reg.CounterVec("shuffle_partition_records", "shuffle", "partition")
	stageTC, err := e.runTasks(ctx, fmt.Sprintf("map s%d", p.id), pending, e.prefsOf(p.parent), func(tc *TaskContext) (any, error) {
		rows, err := e.computePartition(p.parent, tc)
		if err != nil {
			return nil, err
		}
		w, err := e.newWriter(p.dep)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			if err := p.dep.Emit(row, w); err != nil {
				return nil, err
			}
		}
		blocks, stats, err := w.Close()
		if err != nil {
			return nil, err
		}
		return mapOutput{blocks, stats}, nil
	}, func(part int, node topology.NodeID, effect any) {
		out := effect.(mapOutput)
		e.Reg.Counter("shuffle_records_written").Add(int64(out.stats.RecordsOut))
		e.Reg.Counter("shuffle_raw_bytes").Add(out.stats.RawBytes)
		e.Reg.Counter("shuffle_wire_bytes").Add(out.stats.WireBytes)
		e.Reg.Counter("shuffle_spills").Add(int64(out.stats.Spills))
		// Per-reduce-partition distribution, labeled by shuffle and
		// partition — the signal obs reads for skew analysis. Empty
		// partitions are recorded too so the partition count stays honest.
		for reducePart, b := range out.stats.PartitionBytes {
			partBytes.With(shuffleID, strconv.Itoa(reducePart)).Add(b)
		}
		for reducePart, n := range out.stats.PartitionRecords {
			partRecords.With(shuffleID, strconv.Itoa(reducePart)).Add(int64(n))
		}
		// The blocks live with the executor (they survive a coordinator
		// crash); st is the driver's volatile view of them.
		e.exec.put(p.id, part, p.parent.parts, out.blocks)
		st.mu.Lock()
		st.outputs[part] = out.blocks
		st.owner[part] = node
		st.done[part] = true
		st.mu.Unlock()
	})
	if err == nil {
		e.journalStage(p, st, stageTC)
	}
	return err
}

// mapOutput is what one map task computed: its blocks and what writing
// them counted.
type mapOutput struct {
	blocks []shuffle.Block
	stats  shuffle.Stats
}

func (e *Engine) newWriter(dep *ShuffleDep) (shuffle.Writer, error) {
	cfg := shuffle.Config{
		Partitions:     dep.Partitions,
		Partitioner:    dep.Partitioner,
		Codec:          e.cfg.Codec,
		SpillThreshold: e.cfg.SpillThreshold,
	}
	if dep.Sorted || e.cfg.ForceSortShuffle {
		return shuffle.NewSortWriter(cfg)
	}
	return shuffle.NewHashWriter(cfg)
}

// runResult executes the final stage, returning partition rows.
func (e *Engine) runResult(ctx context.Context, p *Plan) ([][]Row, error) {
	out := make([][]Row, p.parts)
	parts := make([]int, p.parts)
	for i := range parts {
		parts[i] = i
	}
	_, err := e.runTasks(ctx, fmt.Sprintf("result s%d", p.id), parts, e.prefsOf(p), func(tc *TaskContext) (any, error) {
		return e.computePartition(p, tc)
	}, func(part int, _ topology.NodeID, effect any) {
		out[part] = effect.([]Row)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// prefsOf walks narrow chains to the underlying source's locality hints.
func (e *Engine) prefsOf(p *Plan) func(part int) []topology.NodeID {
	switch p.kind {
	case kindSource:
		return p.prefs
	case kindNarrow:
		return e.prefsOf(p.parent)
	case kindUnion:
		return func(part int) []topology.NodeID {
			child, local := p.unionChild(part)
			if f := e.prefsOf(child); f != nil {
				return f(local)
			}
			return nil
		}
	default:
		return nil // reduce tasks read from everywhere
	}
}

// taskFunc computes one partition on an executor and returns its effect —
// the rows, or the map output — without publishing anything: with
// speculation on, two copies of a task run it and one of them loses.
// commitFunc publishes the effect of a partition's first successful copy.
// It runs on the driver goroutine inside runWave, so what it writes is
// settled before the stage returns; a later copy's effect is dropped unseen.
type (
	taskFunc   func(*TaskContext) (any, error)
	commitFunc func(part int, node topology.NodeID, effect any)
)

// runTasks runs one stage: fn once per partition on the cluster in
// scheduling waves, honouring locality preferences, retrying transient
// failures with exponential backoff, quarantining flaky nodes, optionally
// launching speculative backups for stragglers, and failing fast on fetch
// errors (which the caller converts into lineage recomputation); commit
// gets each partition's effect exactly once. stage names the stage's span,
// whose context is returned, and labels the span of each task; panics
// inside fn are converted into task errors with the span still recorded.
// ctx cancellation stops the retry loop promptly — including mid-backoff
// and mid-wave.
func (e *Engine) runTasks(ctx context.Context, stage string, parts []int, prefs func(int) []topology.NodeID, fn taskFunc, commit commitFunc) (trace.TraceContext, error) {
	e.Reg.Counter("stages_run").Inc()
	endStage, stageTC := e.tracerRef().BeginCtx(stage, "stage", "driver", jobTraceFrom(ctx))
	defer endStage(map[string]string{"tasks": strconv.Itoa(len(parts))})
	attempts := map[int]int{}
	pending := append([]int(nil), parts...)
	for len(pending) > 0 {
		if err := ctx.Err(); err != nil {
			return stageTC, err
		}
		e.tickWave()
		if e.coordDown() {
			return stageTC, errCoordCrashed
		}
		if err := e.backoff(ctx, pending, attempts); err != nil {
			return stageTC, err
		}
		live := e.placementNodes()
		if len(live) == 0 {
			return stageTC, ErrNoLiveNodes
		}
		failed, err := e.runWave(ctx, stage, stageTC, pending, attempts, live, prefs, fn, commit)
		if err != nil {
			return stageTC, err
		}
		pending = failed
	}
	return stageTC, nil
}

// tickWave advances chaos virtual time and the wave counter, releasing
// quarantined nodes whose sentence has expired. A released node keeps
// threshold-1 strikes: one more failure re-quarantines it, while a single
// success clears it entirely ("proven healthy").
func (e *Engine) tickWave() {
	e.tickChaos()
	e.mu.Lock()
	e.wave++
	for n, till := range e.quarantinedTill {
		if e.wave >= till {
			delete(e.quarantinedTill, n)
			e.nodeFails[n] = quarantineThreshold - 1
			e.Reg.Counter("quarantine_releases").Inc()
		}
	}
	e.Reg.Gauge("quarantined_now").Set(int64(len(e.quarantinedTill)))
	e.mu.Unlock()
}

// placementNodes returns the live nodes eligible for task placement:
// quarantined nodes are excluded unless that would leave nothing to run
// on (degrade gracefully, never wedge the job).
func (e *Engine) placementNodes() []topology.NodeID {
	live := e.cfg.Cluster.LiveNodes()
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.quarantinedTill) == 0 {
		return live
	}
	eligible := make([]topology.NodeID, 0, len(live))
	for _, n := range live {
		if _, q := e.quarantinedTill[n]; !q {
			eligible = append(eligible, n)
		}
	}
	if len(eligible) == 0 {
		return live
	}
	return eligible
}

// backoff sleeps before a retry wave: exponential in the worst pending
// attempt count, capped, with seeded jitter in [0.5, 1.5). Interruptible
// by ctx so a deadline abort never waits out a backoff.
func (e *Engine) backoff(ctx context.Context, pending []int, attempts map[int]int) error {
	if e.cfg.RetryBackoff <= 0 {
		return nil
	}
	maxAttempt := 0
	for _, part := range pending {
		if attempts[part] > maxAttempt {
			maxAttempt = attempts[part]
		}
	}
	if maxAttempt == 0 {
		return nil
	}
	d := e.cfg.RetryBackoff << (maxAttempt - 1)
	if d > e.cfg.MaxRetryBackoff || d <= 0 {
		d = e.cfg.MaxRetryBackoff
	}
	e.mu.Lock()
	jitter := 0.5 + e.rand.Float64()
	e.mu.Unlock()
	d = time.Duration(float64(d) * jitter)
	e.Reg.Counter("task_backoffs").Inc()
	e.Reg.Counter("backoff_ns_total").Add(int64(d))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// copyResult reports the outcome of one running copy (primary or
// speculative backup) of a task.
type copyResult struct {
	idx    int // index into the wave's pending slice
	backup bool
	node   topology.NodeID
	effect any // what the copy computed, when err is nil
	err    error
}

// taskState tracks one task across its copies within a wave.
type taskState struct {
	node           topology.NodeID // primary placement
	start          time.Time
	outstanding    int
	backupLaunched bool
	resolved       bool
	succeeded      bool
	failedNodes    []topology.NodeID
	errs           []error
}

// runWave launches one wave of tasks, monitors for stragglers when
// speculation is on, and resolves outcomes deterministically in partition
// index order once every task has an outcome. A task's effect is committed
// from its first successful copy; a copy still running when the wave ends
// finishes on its own and its result is never read. It returns the
// partitions that must retry.
func (e *Engine) runWave(ctx context.Context, stage string, stageTC trace.TraceContext, pending []int, attempts map[int]int, live []topology.NodeID, prefs func(int) []topology.NodeID, fn taskFunc, commit commitFunc) ([]int, error) {
	n := len(pending)
	liveSet := map[topology.NodeID]bool{}
	for _, nd := range live {
		liveSet[nd] = true
	}
	// Buffered for every possible copy (primary + one backup per task) so
	// abandoning the wave on ctx cancellation leaks no goroutines.
	results := make(chan copyResult, 2*n)
	states := make([]*taskState, n)

	launch := func(i int, node topology.NodeID, backup bool) {
		part := pending[i]
		tc := &TaskContext{Node: node, Partition: part, Attempt: attempts[part]}
		e.Reg.Counter("tasks_launched").Inc()
		if backup {
			e.Reg.Counter("speculative_launches").Inc()
		}
		injected := e.injectFailure(node)
		start := time.Now()
		tracer := e.tracerRef()
		var effect any
		fut := e.cfg.Cluster.Submit(node, func() (err error) {
			end, taskTC := tracer.BeginCtx(
				fmt.Sprintf("task p%d a%d", tc.Partition, tc.Attempt),
				"task", fmt.Sprintf("node-%02d", node), stageTC)
			tc.Trace = taskTC
			defer func() {
				e.Reg.Histogram("task_duration_ns").ObserveDuration(time.Since(start))
				if p := recover(); p != nil {
					// end is idempotent, so the span is recorded even
					// when fn panicked mid-task.
					end(map[string]string{"outcome": fmt.Sprintf("panic: %v", p), "stage": stage})
					err = fmt.Errorf("core: task panicked: %v", p)
				}
			}()
			if injected {
				end(map[string]string{"outcome": "injected-failure", "stage": stage})
				return errInjected
			}
			effect, err = fn(tc)
			outcome := "ok"
			if err != nil {
				outcome = err.Error()
			}
			end(map[string]string{"outcome": outcome, "stage": stage})
			return err
		})
		go func() {
			err := fut.Wait() // orders the read of effect after the task's write
			results <- copyResult{idx: i, backup: backup, node: node, effect: effect, err: err}
		}()
	}

	for i, part := range pending {
		node := live[part%len(live)]
		if prefs != nil {
			for _, pref := range prefs(part) {
				if liveSet[pref] {
					node = pref
					break
				}
			}
		}
		states[i] = &taskState{node: node, start: time.Now(), outstanding: 1}
		launch(i, node, false)
	}

	var durations []time.Duration
	var specTick <-chan time.Time
	if e.cfg.Speculation {
		t := time.NewTicker(500 * time.Microsecond)
		defer t.Stop()
		specTick = t.C
	}
	unresolved := n
	for unresolved > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case r := <-results:
			st := states[r.idx]
			st.outstanding--
			if r.err == nil {
				if !st.resolved {
					st.resolved = true
					st.succeeded = true
					unresolved--
					durations = append(durations, time.Since(st.start))
					commit(pending[r.idx], r.node, r.effect)
					e.recordTaskSuccess(r.node)
					if st.backupLaunched {
						if r.backup {
							e.Reg.Counter("speculative_wins").Inc()
						} else {
							e.Reg.Counter("speculative_losses").Inc()
						}
					}
				}
			} else {
				st.errs = append(st.errs, r.err)
				st.failedNodes = append(st.failedNodes, r.node)
				if !st.resolved && st.outstanding == 0 {
					st.resolved = true
					unresolved--
				}
			}
		case <-specTick:
			e.speculate(states, durations, live, launch)
		}
	}

	// Deterministic end-of-wave resolution: scan tasks in index order so
	// the classification outcome never depends on channel receive order.
	var failed []int
	var fetchErr *fetchError
	for i, st := range states {
		if st.succeeded {
			continue
		}
		part := pending[i]
		for _, nd := range st.failedNodes {
			e.recordTaskFailure(nd)
		}
		retryable := false
		var taskErr error
		for _, err := range st.errs {
			var fe *fetchError
			if errors.As(err, &fe) {
				if fetchErr == nil {
					fetchErr = fe
				}
				if taskErr == nil {
					taskErr = err
				}
				continue
			}
			if errors.Is(err, cluster.ErrNodeDead) || errors.Is(err, errInjected) {
				retryable = true
				if taskErr == nil {
					taskErr = err
				}
				continue
			}
			return nil, err // user error: abort
		}
		if !retryable {
			continue // fetch errors only; surfaced below
		}
		attempts[part]++
		e.Reg.Counter("task_retries").Inc()
		if attempts[part] > e.cfg.MaxTaskRetries {
			return nil, fmt.Errorf("%w: partition %d failed %d times: %v",
				ErrJobAborted, part, attempts[part], taskErr)
		}
		failed = append(failed, part)
	}
	if fetchErr != nil {
		return nil, fetchErr
	}
	return failed, nil
}

// speculate launches one backup copy for each straggler: a task still
// running past max(speculationK×median, SpeculationMin) once at least
// half the wave (and at least two tasks) have finished. The backup goes
// to the next live node after the primary; whichever copy succeeds first
// wins, and the task only fails if every copy fails.
func (e *Engine) speculate(states []*taskState, durations []time.Duration, live []topology.NodeID, launch func(int, topology.NodeID, bool)) {
	done := len(durations)
	if done < 2 || done < (len(states)+1)/2 {
		return
	}
	sorted := append([]time.Duration(nil), durations...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	threshold := time.Duration(speculationK * float64(sorted[len(sorted)/2]))
	if threshold < e.cfg.SpeculationMin {
		threshold = e.cfg.SpeculationMin
	}
	for i, st := range states {
		if st.resolved || st.backupLaunched || time.Since(st.start) < threshold {
			continue
		}
		backupNode := topology.NodeID(-1)
		primaryAt := -1
		for j, nd := range live {
			if nd == st.node {
				primaryAt = j
				break
			}
		}
		if len(live) > 1 {
			backupNode = live[(primaryAt+1)%len(live)]
		}
		if backupNode < 0 || backupNode == st.node {
			continue
		}
		st.backupLaunched = true
		st.outstanding++
		launch(i, backupNode, true)
	}
}

// recordTaskSuccess clears a node's failure strikes.
func (e *Engine) recordTaskSuccess(n topology.NodeID) {
	e.mu.Lock()
	if e.nodeFails[n] != 0 {
		e.nodeFails[n] = 0
	}
	e.mu.Unlock()
}

// recordTaskFailure adds a strike against a node; crossing the threshold
// quarantines it from placement for quarantineWaves waves.
func (e *Engine) recordTaskFailure(n topology.NodeID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, q := e.quarantinedTill[n]; q {
		return
	}
	e.nodeFails[n]++
	if e.nodeFails[n] >= quarantineThreshold {
		e.quarantinedTill[n] = e.wave + quarantineWaves
		e.Reg.Counter("quarantined_nodes").Inc()
	}
}

// injectFailure decides whether the next task on node fails artificially,
// at probability max(Config.TaskFailProb, the node's chaos flakiness).
// The RNG is only consumed when the probability is non-zero, so enabling
// fault injection on one node does not perturb an otherwise identical
// run's random sequence elsewhere.
func (e *Engine) injectFailure(node topology.NodeID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	p := e.cfg.TaskFailProb
	if np := e.nodeFailProb[node]; np > p {
		p = np
	}
	if p <= 0 {
		return false
	}
	return e.rand.Float64() < p
}

// computePartition evaluates plan partition ctx.Partition, recursing
// through narrow chains and reading shuffles/checkpoints/caches.
func (e *Engine) computePartition(p *Plan, ctx *TaskContext) ([]Row, error) {
	if rows, ok := e.cachedPartition(p, ctx.Partition); ok {
		return rows, nil
	}
	if e.isCheckpointed(p) {
		return e.readCheckpoint(p, ctx.Partition)
	}
	var rows []Row
	var err error
	switch p.kind {
	case kindSource:
		rows = p.source(ctx, ctx.Partition)
	case kindNarrow:
		parentCtx := *ctx
		rows, err = e.computePartition(p.parent, &parentCtx)
		if err != nil {
			return nil, err
		}
		rows = p.narrow(ctx, rows)
	case kindUnion:
		child, local := p.unionChild(ctx.Partition)
		childCtx := *ctx
		childCtx.Partition = local
		rows, err = e.computePartition(child, &childCtx)
		if err != nil {
			return nil, err
		}
	case kindShuffled:
		rows, err = e.readShuffle(p, ctx)
		if err != nil {
			return nil, err
		}
	}
	e.storeCache(p, ctx.Partition, rows)
	return rows, nil
}

func (e *Engine) cachedPartition(p *Plan, part int) ([]Row, bool) {
	if !p.cache {
		return nil, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	parts, ok := e.caches[p.id]
	if !ok || parts[part] == nil {
		return nil, false
	}
	return parts[part], true
}

func (e *Engine) storeCache(p *Plan, part int, rows []Row) {
	if !p.cache {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	parts, ok := e.caches[p.id]
	if !ok {
		parts = make([][]Row, p.parts)
		e.caches[p.id] = parts
	}
	if rows == nil {
		rows = []Row{} // distinguish "cached empty" from "not cached"
	}
	parts[part] = rows
}

// readShuffle fetches and decodes one reduce partition of shuffled plan p.
func (e *Engine) readShuffle(p *Plan, ctx *TaskContext) ([]Row, error) {
	st := e.shuffleStateFor(p)
	var blocks []shuffle.Block
	fabric := e.cfg.Cluster.Fabric()
	st.mu.Lock()
	for mapPart := range st.outputs {
		if !st.done[mapPart] {
			st.mu.Unlock()
			return nil, &fetchError{planID: p.id, mapPart: mapPart}
		}
		owner := st.owner[mapPart]
		if n, err := e.cfg.Cluster.Node(owner); err == nil && !n.Alive() {
			st.mu.Unlock()
			return nil, &fetchError{planID: p.id, mapPart: mapPart}
		}
		if !fabric.Reachable(owner, ctx.Node) {
			st.mu.Unlock()
			e.Reg.Counter("partition_blocked_fetches").Inc()
			return nil, &fetchError{planID: p.id, mapPart: mapPart, unreachable: true}
		}
		label := "" // only a traced fetch shows it
		if ctx.Trace.Valid() {
			label = fmt.Sprintf("fetch s%d m%d", p.id, mapPart)
		}
		for _, b := range st.outputs[mapPart] {
			if b.Partition != ctx.Partition {
				continue
			}
			blocks = append(blocks, b)
			cost := fabric.CostCtx(owner, ctx.Node, int64(len(b.Data)), ctx.Trace, label)
			e.Reg.Counter("net_time_ns").Add(int64(cost))
			e.Reg.Counter("shuffle_bytes_fetched").Add(int64(len(b.Data)))
		}
	}
	st.mu.Unlock()
	recs, err := shuffle.ReadRecords(e.cfg.Codec, blocks)
	if err != nil {
		return nil, err
	}
	return p.dep.Post(ctx, recs), nil
}

// Checkpoint materializes p's partitions to the engine's DFS at path. After
// a successful checkpoint, recovery reads the files instead of recomputing
// lineage. enc/dec serialize rows.
func (e *Engine) Checkpoint(p *Plan, path string, enc func(Row) []byte, dec func([]byte) Row) error {
	if e.cfg.DFS == nil {
		return errors.New("core: engine has no DFS configured for checkpoints")
	}
	if enc == nil || dec == nil {
		return errors.New("core: Checkpoint requires enc and dec")
	}
	parts, err := e.Run(p)
	if err != nil {
		return err
	}
	for i, rows := range parts {
		w, err := e.cfg.DFS.Create(checkpointFile(path, i))
		if err != nil {
			return err
		}
		sw := serde.NewWriter(w)
		for _, row := range rows {
			if err := sw.Write(nil, enc(row)); err != nil {
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	p.checkpoint = &checkpointSpec{path: path, encode: enc, decode: dec}
	e.mu.Lock()
	e.ckptDone[p.id] = true
	e.mu.Unlock()
	e.Reg.Counter("checkpoints_written").Inc()
	e.journalCheckpoint(p)
	return nil
}

func checkpointFile(path string, part int) string {
	return fmt.Sprintf("%s/part-%05d", path, part)
}

func (e *Engine) readCheckpoint(p *Plan, part int) ([]Row, error) {
	r, err := e.cfg.DFS.Open(checkpointFile(p.checkpoint.path, part), -1)
	if err != nil {
		return nil, err
	}
	sr := serde.NewReader(r)
	var rows []Row
	for {
		rec, err := sr.Read()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, err
		}
		rows = append(rows, p.checkpoint.decode(rec.Value))
	}
}

// Broadcast registers a read-only value shared by all tasks, charging the
// fabric for shipping `size` bytes to every other node (a tree broadcast
// would be cheaper; we model the simple one-to-all).
func (e *Engine) Broadcast(v any, size int64) *Broadcast {
	fabric := e.cfg.Cluster.Fabric()
	top := fabric.Topology()
	var total time.Duration
	for n := 1; n < top.Size(); n++ {
		total += fabric.Cost(0, topology.NodeID(n), size)
	}
	e.Reg.Counter("net_time_ns").Add(int64(total))
	e.Reg.Counter("broadcast_bytes").Add(size * int64(top.Size()-1))
	return &Broadcast{value: v}
}

// Broadcast is a handle to a cluster-wide read-only value.
type Broadcast struct {
	value any
}

// Value returns the broadcast value.
func (b *Broadcast) Value() any { return b.value }

// Accumulator is a task-side counter aggregated at the driver.
type Accumulator struct {
	c metrics.Counter
}

// NewAccumulator returns a fresh accumulator.
func (e *Engine) NewAccumulator() *Accumulator { return &Accumulator{} }

// Add contributes delta from a task.
func (a *Accumulator) Add(delta int64) { a.c.Add(delta) }

// Value reads the aggregated total.
func (a *Accumulator) Value() int64 { return a.c.Value() }

// NetTime returns accumulated simulated network time across all transfers
// the engine has charged to the fabric.
func (e *Engine) NetTime() time.Duration {
	return time.Duration(e.Reg.Counter("net_time_ns").Value())
}
