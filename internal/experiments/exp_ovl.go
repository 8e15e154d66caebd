package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// ovlCluster is one serving stack for an overload run: a quorum KV store
// on a TCP fabric, plus the ServeFunc adapters the admission simulator
// drives against it.
type ovlCluster struct {
	fab   *netsim.Fabric
	store *kvstore.Store
	nodes int
}

func newOvlCluster() *ovlCluster {
	fab := netsim.NewFabric(topology.TwoTier(2, 4, 2), netsim.TCP40G)
	store, err := kvstore.New(kvstore.Config{Fabric: fab, N: 3, R: 2, W: 2})
	if err != nil {
		panic(err)
	}
	return &ovlCluster{fab: fab, store: store, nodes: 8}
}

// serveCtx is the deadline-aware serving path: GetCtx/PutCtx fail fast
// when the remaining virtual budget cannot cover the quorum op, so a
// doomed request burns (at most) its budget instead of full service time.
func (c *ovlCluster) serveCtx(ctx context.Context, op workload.Op, coord topology.NodeID) (time.Duration, error) {
	if op.Kind == workload.OpPut {
		return c.store.PutCtx(ctx, coord, op.Key, op.Value)
	}
	_, lat, err := c.store.GetCtx(ctx, coord, op.Key)
	if err == kvstore.ErrNotFound {
		err = nil // a read miss is a fast, legitimate answer
	}
	return lat, err
}

// serveLegacy is the pre-admission serving path: the blocking Get/Put
// API that charges full service latency no matter how stale the request.
func (c *ovlCluster) serveLegacy(_ context.Context, op workload.Op, coord topology.NodeID) (time.Duration, error) {
	if op.Kind == workload.OpPut {
		return c.store.Put(coord, op.Key, op.Value)
	}
	_, lat, err := c.store.Get(coord, op.Key)
	if err == kvstore.ErrNotFound {
		err = nil
	}
	return lat, err
}

// ovlCalibrate measures the store's closed-loop mean service latency and
// returns it with the implied capacity (ops/sec) — the saturation point
// the sweep's offered-load multiples are expressed against.
func ovlCalibrate() (time.Duration, float64) {
	c := newOvlCluster()
	trace := workload.KVOps(2_000, 4_096, 0, 0.9, 128, 77)
	var total time.Duration
	for i, op := range trace {
		coord := topology.NodeID(i % c.nodes)
		var lat time.Duration
		var err error
		if op.Kind == workload.OpPut {
			lat, err = c.store.Put(coord, op.Key, op.Value)
		} else {
			_, lat, err = c.store.Get(coord, op.Key)
			if err == kvstore.ErrNotFound {
				err = nil
			}
		}
		if err != nil {
			panic(err)
		}
		total += lat
	}
	mean := total / time.Duration(len(trace))
	if mean <= 0 {
		mean = time.Microsecond
	}
	return mean, float64(time.Second) / float64(mean)
}

// ovlTenants is the three-tier YCSB mix (A = batch, B = standard, C =
// interactive) splitting the offered rate evenly.
func ovlTenants(totalRate float64) []workload.TenantSpec {
	out := make([]workload.TenantSpec, 3)
	for i, m := range []string{"A", "B", "C"} {
		rf, _ := workload.YCSBMix(m)
		out[i] = workload.TenantSpec{
			ID:         "ycsb-" + m,
			RatePerSec: totalRate / 3,
			Weight:     1,
			Priority:   i,
			ReadFrac:   rf,
			Keys:       512,
			Skew:       0.99,
			ValueSize:  128,
		}
	}
	return out
}

// ovlQuotas sizes per-tenant admission quotas at 95% of measured
// capacity with ~20ms of bucket depth.
func ovlQuotas(tenants []workload.TenantSpec, capacity float64) []admission.TenantQuota {
	ids := make([]string, len(tenants))
	weights := make([]float64, len(tenants))
	prios := make([]int, len(tenants))
	for i, t := range tenants {
		ids[i], weights[i], prios[i] = t.ID, t.Weight, t.Priority
	}
	qs := admission.QuotasFor(ids, weights, prios, 0.95*capacity)
	for i := range qs {
		qs[i].Burst = qs[i].Rate * 0.02
	}
	return qs
}

// OverloadConfig assembles a defended sweep point against a quorum store
// at the offered rate (ops/sec). Every control knob derives from the
// measured mean service latency, so the run self-scales to whatever the
// fabric actually costs. The kv BENCH family runs it at twice capacity.
func OverloadConfig(store *kvstore.Store, nodes int, offered, capacity float64, mean, dur time.Duration, seed uint64) admission.SimConfig {
	c := &ovlCluster{store: store, nodes: nodes}
	tenants := ovlTenants(offered)
	return admission.SimConfig{
		Tenants:     tenants,
		Duration:    dur,
		Seed:        seed,
		Nodes:       nodes,
		Deadline:    50 * mean,
		MaxAttempts: 3,
		Backoff:     5 * mean,
		RetryRatio:  0.1,
		WindowWidth: dur / 8,
		Serve:       c.serveCtx,
		Admission: &admission.Config{
			Tenants:  ovlQuotas(tenants, capacity),
			Target:   4 * mean,
			Interval: 40 * mean,
			MaxQueue: 256,
		},
	}
}

// ovlConfig is one sweep point on c: OverloadConfig, or with admission
// off the undefended legacy path with no retry budget.
func ovlConfig(c *ovlCluster, mult float64, capacity float64, mean, dur time.Duration, admissionOn bool, seed uint64) admission.SimConfig {
	cfg := OverloadConfig(c.store, c.nodes, mult*capacity, capacity, mean, dur, seed)
	if !admissionOn {
		cfg.Serve, cfg.Admission, cfg.RetryRatio = c.serveLegacy, nil, 0
	}
	return cfg
}

// EOVLOverload sweeps offered load from half to twice the measured
// saturation point through the admission stack (per-tenant WFQ quotas,
// CoDel shedding, retry budgets, deadline propagation) and through the
// undefended legacy path. The defended rows hold goodput flat and tail
// latency bounded past saturation; the control rows show the metastable
// collapse — goodput falls as offered load rises, and the run's virtual
// elapsed time blows past the arrival window as the backlog drains long
// after clients stopped caring. A chaos row replays the "overload"
// preset (burst + tenant flood + degraded node) against the defended
// stack, and the store's linearizability is checked after shedding.
func EOVLOverload(p Params) *Table {
	mean, capacity := ovlCalibrate()
	dur := pick(p.Scale, 300*time.Millisecond, time.Second)
	t := &Table{
		ID:    "E-OVL",
		Title: "Overload: goodput vs offered load, admission stack on/off",
		Note: fmt.Sprintf("3 YCSB tenants on an 8-node R2W2 store (measured mean %v => capacity %.0f ops/s); "+
			"deadline 50x mean; control = unbounded FIFO, no budgets, no deadline propagation",
			mean.Round(100*time.Nanosecond), capacity),
		Cols: []string{"offered", "mode", "arrivals", "goodput/s", "p99", "p999", "shed%", "timeouts", "vtime", "linear"},
	}

	addRow := func(label, mode string, res admission.SimResult, linear string) {
		shedPct := 0.0
		if res.Offered > 0 {
			shedPct = 100 * float64(res.ShedQuota+res.ShedQueue+res.ShedSojourn) / float64(res.Offered)
		}
		t.AddRow(label, mode,
			fmt.Sprintf("%d", res.Offered),
			fmt.Sprintf("%.0f", res.GoodputPerSec),
			time.Duration(res.AdmittedLatency.P99).Round(time.Microsecond).String(),
			time.Duration(res.AdmittedLatency.P999).Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f%%", shedPct),
			fmt.Sprintf("%d", res.Timeouts),
			res.VirtualElapsed.Round(time.Millisecond).String(),
			linear)
	}

	for _, mult := range []float64{0.5, 1, 1.5, 2} {
		label := fmt.Sprintf("%.1fx", mult)

		// Defended run, with a post-run linearizability capture against
		// the same (shed-scarred) store.
		c := newOvlCluster()
		res := admission.NewSim(ovlConfig(c, mult, capacity, mean, dur, true, 7)).Run()
		h := check.CaptureHistory(c.store, check.CaptureConfig{
			Clients: 4, Waves: 10, Keys: 6, Nodes: c.nodes,
			ReadFraction: 0.4, DeleteFraction: 0.1,
			Seed:       uint64(100 + 10*mult),
			IsNotFound: func(err error) bool { return err == kvstore.ErrNotFound },
		})
		diff := t.recordCheck(check.Linearizable(h).Diff(fmt.Sprintf("E-OVL/%s/admission", label)))
		addRow(label, "admission", res, verdictCell(diff))

		// Control run: same arrivals, no defense stack.
		addRow(label, "control", admission.NewSim(ovlConfig(newOvlCluster(), mult, capacity, mean, dur, false, 7)).Run(), "-")
	}

	// Chaos row: the "overload" preset (3x burst, 5x tenant-0 flood, one
	// degraded node) against the defended stack at 1x offered load. The
	// preset's virtual ticks are paced so every event lands inside the
	// arrival window.
	c := newOvlCluster()
	cfg := ovlConfig(c, 1, capacity, mean, dur, true, 7)
	cfg.TickEvery = dur / 12
	var ctl *chaos.Controller
	cfg.Tick = func(step int64) { ctl.AdvanceTo(step) }
	sim := admission.NewSim(cfg)
	sched, err := chaos.Preset("overload", c.nodes)
	if err != nil {
		panic(err)
	}
	ctl = chaos.New(sched, 7, chaos.Targets{Nodes: c.nodes, Overload: sim, Network: c.fab}, c.store.Reg)
	res := sim.Run()
	h := check.CaptureHistory(c.store, check.CaptureConfig{
		Clients: 4, Waves: 10, Keys: 6, Nodes: c.nodes,
		ReadFraction: 0.4, DeleteFraction: 0.1,
		Seed:       777,
		IsNotFound: func(err error) bool { return err == kvstore.ErrNotFound },
	})
	diff := t.recordCheck(check.Linearizable(h).Diff("E-OVL/1.0x/chaos"))
	t.recordFaults("E-OVL/1.0x/chaos", ctl)
	addRow("1.0x", "adm+chaos", res, verdictCell(diff))

	return t
}
