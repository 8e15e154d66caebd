package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// runCfg is one workload run's settings.
type runCfg struct {
	workload string
	seed     uint64
	seconds  float64 // timed phase length; 0 runs exactly the counted prefix
	scale    float64 // input size multiplier
	trace    bool
}

// workloadDef describes one workload. setup builds the inputs and the
// system under test and runs one untimed warm-up round; the returned
// instance then drives timed rounds.
type workloadDef struct {
	name string
	item string // unit of throughput_per_s and of the per-item metrics
	why  string
	// prefix is the number of rounds every run completes whatever its
	// speed. Metrics that must not depend on how many rounds fit in the
	// time box (allocations, peak memory, simulated time, wire bytes) are
	// taken over exactly these rounds.
	prefix int
	// p90 marks the workloads whose rounds are short enough that a run
	// holds the hundred-odd samples a 90th percentile needs.
	p90 bool
	// parallel marks the workloads whose rounds run on every proc (engine
	// tasks, stream workers); the kv workloads run on the driver alone.
	// It sets the CPU budget a layer's probe time is a share of.
	parallel bool
	setup    func(cfg runCfg) (instance, error)
}

// instance is one built system under test plus its input generator.
type instance interface {
	// drive opens the timed phase with m.begin() and runs closed-loop
	// rounds from the single driver goroutine until m.more() is false:
	// generate inputs, m.start(), call the program, m.stop(), check
	// outputs. Generation and checks are not timed.
	drive(m *meter) error
	// fingerprint identifies the generated inputs.
	fingerprint() uint64
	// probes runs the layer probes over the instance's generated inputs
	// (traced runs only), stores per-layer metrics in out and attributes
	// a round's wall time with m.share.
	probes(m *meter, out map[string]float64) error
}

// meter times rounds and keeps the counts every workload reports.
type meter struct {
	seconds float64
	prefix  int
	rec     *spanRecorder // nil when untraced; methods are nil-safe

	began     time.Time
	t0        time.Time
	roundSpan int
	walls     []time.Duration
	items     int64

	ms0         runtime.MemStats
	prefixItems int64
	prefixMalls uint64
	prefixBytes uint64
	prefixRSSMB float64

	attempted, failed int64
	firstFailure      string

	// Per-workload deterministic sums over the counted prefix.
	simNs     int64   // simulated network time (batch workloads)
	wireBytes int64   // shuffle bytes on the wire (batch workloads)
	simLat    []int64 // per-op simulated latency, ns (kv workloads)

	shares []layerShare
}

func newMeter(seconds float64, prefix int, rec *spanRecorder) *meter {
	return &meter{seconds: seconds, prefix: prefix, rec: rec}
}

// begin opens the timed phase.
func (m *meter) begin() {
	runtime.GC()
	runtime.ReadMemStats(&m.ms0)
	m.began = time.Now()
}

// more reports whether another round should run: always until the counted
// prefix is complete, then until the time box is used up.
func (m *meter) more() bool {
	return len(m.walls) < m.prefix || time.Since(m.began).Seconds() < m.seconds
}

// counting reports whether the round now running belongs to the counted
// prefix.
func (m *meter) counting() bool { return len(m.walls) < m.prefix }

func (m *meter) start() {
	m.roundSpan = m.rec.begin("round")
	m.t0 = time.Now()
}

func (m *meter) stop(items int64) {
	wall := time.Since(m.t0)
	m.rec.end(m.roundSpan, "items", items)
	m.walls = append(m.walls, wall)
	m.items += items
	if len(m.walls) == m.prefix {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.prefixItems = m.items
		m.prefixMalls = ms.Mallocs - m.ms0.Mallocs
		m.prefixBytes = ms.TotalAlloc - m.ms0.TotalAlloc
		m.prefixRSSMB = peakRSSMB()
	}
}

// share records what a layer probe measured for one round's worth of
// items; runTraced turns it into a share of the round's wall time.
func (m *meter) share(layer string, msPerRound float64) {
	m.shares = append(m.shares, layerShare{Layer: layer, Ms: msPerRound})
}

// ok counts n attempted operations that passed their checks.
func (m *meter) ok(n int64) { m.attempted += n }

// fail counts n attempted operations as failed.
func (m *meter) fail(n int64, format string, args ...any) {
	m.attempted += n
	m.failed += n
	if m.firstFailure == "" {
		m.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (m *meter) timedWall() time.Duration {
	var sum time.Duration
	for _, w := range m.walls {
		sum += w
	}
	return sum
}

func (m *meter) throughput() float64 {
	return float64(m.items) / m.timedWall().Seconds()
}

// quantile is the q-quantile of vs by nearest rank (0 for no samples).
func quantile[T ~int64](vs []T, q float64) T {
	if len(vs) == 0 {
		return 0
	}
	s := append([]T(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank(len(s), q)]
}

func rank(n int, q float64) int {
	i := int(q*float64(n)+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func medianFloat(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// An untraced run sets up several times and reports the median as
// setup_s: at least minSetupReps times, and for a set-up much shorter than
// a second as many times as fit in setupBudget (at most maxSetupReps), so
// that a 10 ms set-up is not judged on three samples.
const (
	minSetupReps = 5
	maxSetupReps = 25
	setupBudget  = 2 * time.Second
)

// record is everything one workload run reports.
type record struct {
	Workload    string             `json:"workload"`
	Item        string             `json:"item"`
	Correct     bool               `json:"correct"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	Failure     string             `json:"failure,omitempty"`
	Fingerprint string             `json:"inputs_fingerprint"`
	Rounds      int                `json:"rounds"`
	PrefixRound int                `json:"prefix_rounds"`
	Items       int64              `json:"items"`
	WallS       float64            `json:"wall_s"`
	RoundMs     []float64          `json:"round_ms"`
	Metrics     map[string]float64 `json:"metrics"`
	Shares      []layerShare       `json:"shares,omitempty"`
}

// layerShare is one row of the traced run's attribution table: the
// single-threaded cost a layer probe measured for one round's worth of
// items, as a share of that round's CPU budget (median round wall, times
// GOMAXPROCS where the round runs on every proc).
type layerShare struct {
	Layer string  `json:"layer"`
	Ms    float64 `json:"cpu_ms_per_round"`
	Pct   float64 `json:"pct_of_round_cpu_budget"`
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// runWorkload runs one workload in this process.
func runWorkload(cfg runCfg) (*record, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	began := time.Now()
	if cfg.trace {
		return runTraced(w, cfg, began)
	}
	var setups []float64
	var inst instance
	for reps := minSetupReps; len(setups) < reps; {
		inst = nil
		runtime.GC() // the last set-up's garbage is not this one's cost
		t0 := time.Now()
		if inst, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		took := time.Since(t0)
		setups = append(setups, took.Seconds())
		if len(setups) == 1 && took > 0 {
			reps = max(minSetupReps, min(maxSetupReps, int(setupBudget/took)))
		}
	}
	m := newMeter(cfg.seconds, w.prefix, nil)
	if err := inst.drive(m); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec := newRecord(w, m, inst, began)
	rec.Metrics["setup_s"] = medianFloat(setups)
	rec.Metrics["throughput_per_s"] = m.throughput()
	rec.Metrics["round_p10_ms"] = ms(quantile(m.walls, 0.1))
	rec.Metrics["allocs_per_item"] = float64(m.prefixMalls) / float64(m.prefixItems)
	rec.Metrics["alloc_bytes_per_item"] = float64(m.prefixBytes) / float64(m.prefixItems)
	return rec, nil
}

func newRecord(w workloadDef, m *meter, inst instance, began time.Time) *record {
	rec := &record{
		Workload:    w.name,
		Item:        w.item,
		Correct:     m.failed == 0,
		Attempted:   m.attempted,
		Failed:      m.failed,
		Failure:     m.firstFailure,
		Fingerprint: fmt.Sprintf("%016x", inst.fingerprint()),
		Rounds:      len(m.walls),
		PrefixRound: m.prefix,
		Items:       m.items,
		WallS:       time.Since(began).Seconds(),
		Metrics:     map[string]float64{},
	}
	for _, w := range m.walls {
		rec.RoundMs = append(rec.RoundMs, ms(w))
	}
	return rec
}

// runTraced is the -trace 1 run: a quarter of the time box untraced (the
// reference for bench.trace_overhead_pct and the source of the
// whole-workload counts), a quarter with the span recorder on, then the
// layer probes over the same generated inputs. End-to-end numbers never
// come from this run.
func runTraced(w workloadDef, cfg runCfg, began time.Time) (*record, error) {
	phase := cfg.seconds / 4

	ref, err := w.setup(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	plain := newMeter(phase, w.prefix, nil)
	if err := ref.drive(plain); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	inst, err := w.setup(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	rec := newSpanRecorder(w.name)
	root := rec.begin(w.name)
	traced := newMeter(phase, w.prefix, rec)
	phaseSpan := rec.begin("traced rounds")
	if err := inst.drive(traced); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec.end(phaseSpan, "rounds", int64(len(traced.walls)))

	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	probeSpan := rec.begin("layer probes")
	if err := inst.probes(traced, out); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", w.name, err)
	}
	rec.end(probeSpan)
	rec.end(root)

	// Whole-workload counts come from the untraced phase; both phases ran
	// the same counted prefix, so the deterministic ones agree.
	m := plain
	m.attempted += traced.attempted
	m.failed += traced.failed
	if m.firstFailure == "" {
		m.firstFailure = traced.firstFailure
	}
	res := newRecord(w, m, inst, began)
	res.Metrics = out
	out["round_p50_ms"] = ms(quantile(m.walls, 0.5))
	out["peak_rss_mb"] = m.prefixRSSMB
	if w.p90 {
		out["round_p90_ms"] = ms(quantile(m.walls, 0.9))
	}
	if len(m.simLat) > 0 {
		out["sim_latency_p50_us"] = float64(quantile(m.simLat, 0.5)) / 1e3
		out["sim_latency_p99_us"] = float64(quantile(m.simLat, 0.99)) / 1e3
	}
	if m.simNs > 0 {
		out["sim_net_ms_per_round"] = float64(m.simNs) / 1e6 / float64(m.prefix)
	}
	if m.wireBytes > 0 {
		out["wire_bytes_per_item"] = float64(m.wireBytes) / float64(m.prefixItems)
	}
	out["failed_ratio"] = float64(m.failed) / float64(m.attempted)
	out["bench.trace_overhead_pct"] = (plain.throughput() - traced.throughput()) / plain.throughput() * 100
	budgetMs := ms(quantile(plain.walls, 0.5))
	if w.parallel {
		budgetMs *= float64(runtime.GOMAXPROCS(0))
	}
	for _, s := range traced.shares {
		s.Pct = s.Ms / budgetMs * 100
		res.Shares = append(res.Shares, s)
	}
	if err := rec.writeChrome(w.name); err != nil {
		return nil, err
	}
	return res, nil
}
