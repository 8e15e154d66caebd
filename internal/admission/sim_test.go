package admission

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/workload"
)

// waitSimGoroutines polls until the goroutine count falls back to the
// baseline — the sim's retry and shed paths hand work to goroutines that
// shut down asynchronously, so a plain count right after Run races the
// teardown.
func waitSimGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), baseline)
}

// simTenants is the standard three-tenant YCSB A/B/C mix at the given
// aggregate offered rate.
func simTenants(totalRate float64) []workload.TenantSpec {
	mixes := []string{"A", "B", "C"}
	out := make([]workload.TenantSpec, 3)
	for i, m := range mixes {
		rf, _ := workload.YCSBMix(m)
		out[i] = workload.TenantSpec{
			ID:         fmt.Sprintf("ycsb-%s", m),
			RatePerSec: totalRate / 3,
			Weight:     1,
			Priority:   i, // A is the batch tier; C sheds last
			ReadFrac:   rf,
			Keys:       256,
			Skew:       0.99,
		}
	}
	return out
}

// fixedServe serves every op in `lat` of simulated time. With
// honorBudget it fast-fails (at zero cost) when the remaining virtual
// budget cannot cover the work — the deadline-propagation path; without,
// it models the legacy API that grinds on regardless.
func fixedServe(lat time.Duration, honorBudget bool) ServeFunc {
	return func(ctx context.Context, op workload.Op, coord topology.NodeID) (time.Duration, error) {
		if honorBudget {
			if rem, ok := Budget(ctx); ok && rem < lat {
				return 0, fmt.Errorf("fixedServe: %w", ErrDeadline)
			}
		}
		return lat, nil
	}
}

// quotasWithBurst derives per-tenant admission quotas from a capacity
// estimate, with bucket depth sized to ~20ms of traffic so the initial
// full bucket cannot dump a deep queue on the server.
func quotasWithBurst(tenants []workload.TenantSpec, totalRate float64) []TenantQuota {
	ids := make([]string, len(tenants))
	weights := make([]float64, len(tenants))
	prios := make([]int, len(tenants))
	for i, t := range tenants {
		ids[i], weights[i], prios[i] = t.ID, t.Weight, t.Priority
	}
	qs := QuotasFor(ids, weights, prios, totalRate)
	for i := range qs {
		qs[i].Burst = qs[i].Rate * 0.02
	}
	return qs
}

func overloadConfig(mult float64, admissionOn bool, seed uint64) SimConfig {
	const capacity = 1000.0 // 1/serveLat
	cfg := SimConfig{
		Tenants:  simTenants(mult * capacity),
		Duration: 2 * time.Second,
		Seed:     seed,
		Deadline: 50 * time.Millisecond,
		Serve:    fixedServe(time.Millisecond, admissionOn),
	}
	if admissionOn {
		cfg.Admission = &Config{
			Tenants:  quotasWithBurst(cfg.Tenants, 0.95*capacity),
			Target:   2 * time.Millisecond,
			Interval: 20 * time.Millisecond,
			MaxQueue: 256,
		}
		cfg.RetryRatio = 0.1
	}
	return cfg
}

func TestSimDeterministic(t *testing.T) {
	baseline := runtime.NumGoroutine()
	defer waitSimGoroutines(t, baseline)
	for _, on := range []bool{true, false} {
		a := NewSim(overloadConfig(1.5, on, 42)).Run()
		b := NewSim(overloadConfig(1.5, on, 42)).Run()
		if a.Checksum != b.Checksum || a.Goodput != b.Goodput ||
			a.Offered != b.Offered || a.VirtualElapsed != b.VirtualElapsed ||
			a.ShedQuota != b.ShedQuota || a.ShedSojourn != b.ShedSojourn {
			t.Fatalf("admission=%v not deterministic:\n%+v\n%+v", on, a, b)
		}
		c := NewSim(overloadConfig(1.5, on, 43)).Run()
		if c.Checksum == a.Checksum {
			t.Fatalf("admission=%v: different seeds, identical checksum", on)
		}
	}
}

// TestSimFlatPastSaturation is the package-level version of the E-OVL
// headline: with the defense stack on, goodput at 2x saturation stays
// within 10% of peak and admitted p999 stays bounded; the undefended
// control run collapses.
func TestSimFlatPastSaturation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	defer waitSimGoroutines(t, baseline)
	peak := 0.0
	var at2x SimResult
	for _, mult := range []float64{0.5, 1.0, 1.5, 2.0} {
		res := NewSim(overloadConfig(mult, true, 7)).Run()
		if res.GoodputPerSec > peak {
			peak = res.GoodputPerSec
		}
		if mult == 2.0 {
			at2x = res
		}
	}
	if at2x.GoodputPerSec < 0.9*peak {
		t.Fatalf("goodput at 2x = %.0f/s, < 90%% of peak %.0f/s", at2x.GoodputPerSec, peak)
	}
	if p999 := time.Duration(at2x.AdmittedLatency.P999); p999 > 100*time.Millisecond {
		t.Fatalf("admitted p999 = %v, want bounded by 2x deadline", p999)
	}
	if at2x.ShedQuota == 0 {
		t.Fatal("2x overload shed nothing at the quota edge")
	}

	control := NewSim(overloadConfig(2.0, false, 7)).Run()
	if control.GoodputPerSec > 0.3*at2x.GoodputPerSec {
		t.Fatalf("control run did not collapse: %.0f/s vs defended %.0f/s",
			control.GoodputPerSec, at2x.GoodputPerSec)
	}
	// The collapse mechanism: the unbounded queue keeps the server busy
	// long past the arrival window, all of it wasted work.
	if control.VirtualElapsed < 3*time.Second {
		t.Fatalf("control run finished at %v; expected a drained backlog far past 2s", control.VirtualElapsed)
	}
	if control.Timeouts == 0 {
		t.Fatal("control run recorded no timeouts")
	}
}

// badNodeConfig is a defended run at half load over four coordinators,
// one of which (node 2) refuses every call; badCalls counts its calls.
func badNodeConfig(badCalls *int64) SimConfig {
	const bad = topology.NodeID(2)
	cfg := overloadConfig(0.5, true, 11)
	cfg.Nodes = 4
	cfg.Serve = func(ctx context.Context, op workload.Op, coord topology.NodeID) (time.Duration, error) {
		if coord == bad {
			*badCalls++
			return 5 * time.Millisecond, fmt.Errorf("node %d: connection refused", coord)
		}
		return time.Millisecond, nil
	}
	cfg.Breaker = BreakerConfig{Threshold: 3, Cooldown: 200 * time.Millisecond}
	return cfg
}

func TestSimBreakerRoutesAroundBadNode(t *testing.T) {
	baseline := runtime.NumGoroutine()
	defer waitSimGoroutines(t, baseline)
	var badCalls int64
	res := NewSim(badNodeConfig(&badCalls)).Run()
	if res.BreakerOpens == 0 {
		t.Fatal("failing node never tripped its breaker")
	}
	if res.Failures == 0 {
		t.Fatal("expected per-node failures")
	}
	// With the breaker routing around the bad node, calls to it are
	// bounded by trips+probes, a tiny fraction of total admitted.
	if badCalls*8 > res.Admitted {
		t.Fatalf("bad node took %d of %d calls despite breaker", badCalls, res.Admitted)
	}
	if res.GoodputPerSec < 0.8*0.5*1000/3*3 { // ~offered rate
		t.Fatalf("goodput %.0f/s collapsed despite routing around bad node", res.GoodputPerSec)
	}
}

func TestSimChaosHooks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	defer waitSimGoroutines(t, baseline)
	base := overloadConfig(0.5, true, 13)
	quiet := NewSim(base).Run()

	burst := overloadConfig(0.5, true, 13)
	var sim *Sim
	burst.Tick = func(step int64) {
		// Steps are 100ms of virtual time: burst 3x in [0.5s, 1.5s).
		switch step {
		case 5:
			sim.SetBurst(3)
			sim.SetTenantFlood(0, 2)
		case 15:
			sim.SetTenantFlood(0, 1)
			sim.SetBurst(1)
		}
	}
	sim = NewSim(burst)
	res := sim.Run()
	if res.Offered <= quiet.Offered+int64(float64(quiet.Offered)*0.2) {
		t.Fatalf("burst+flood offered %d, quiet %d: hooks had no effect", res.Offered, quiet.Offered)
	}
	// Same seed, same config, same hooks: still deterministic.
	var sim2 *Sim
	burst2 := overloadConfig(0.5, true, 13)
	burst2.Tick = func(step int64) {
		switch step {
		case 5:
			sim2.SetBurst(3)
			sim2.SetTenantFlood(0, 2)
		case 15:
			sim2.SetTenantFlood(0, 1)
			sim2.SetBurst(1)
		}
	}
	sim2 = NewSim(burst2)
	if res2 := sim2.Run(); res2.Checksum != res.Checksum {
		t.Fatal("chaos-driven run not deterministic")
	}
}
