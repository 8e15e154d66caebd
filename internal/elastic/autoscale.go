// Package elastic simulates cloud elasticity: a utilization-targeting
// autoscaler (with provisioning delay, cooldown and min/max bounds) tracks
// an offered-load trace, optionally under spot-instance preemptions, and
// is compared against static provisioning on cost (node-steps), average
// utilization and SLO violations — experiment E11.
package elastic

import (
	"math"
	"time"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Policy is the autoscaler configuration.
type Policy struct {
	// TargetUtil is the utilization setpoint the scaler sizes for.
	// Default 0.65.
	TargetUtil float64
	// Min and Max bound the fleet size. Defaults 1 and 1024.
	Min, Max int
	// CooldownSteps is how many steps must pass between scale-downs
	// (scale-ups are never delayed by cooldown). Default 3.
	CooldownSteps int
	// ProvisionDelaySteps is how long a launched node takes to come up.
	// Default 2.
	ProvisionDelaySteps int
	// SLOTargetP99, when positive, switches the scaler from utilization
	// tracking to SLO tracking: each step's request latency is modeled
	// from the fleet's load and observed into a windowed histogram
	// (metrics.WindowedHistogram), and the scaler reacts to the window's
	// p99 — up 25% on a breach, down one node when p99 sits below half
	// the target. Latency is the signal users actually feel; utilization
	// is only a proxy for it, and the proxy misreads workloads whose
	// per-request cost varies (the admission layer's shed decisions are
	// p99-driven for the same reason).
	SLOTargetP99 time.Duration
	// Disabled freezes the fleet at Min (static provisioning baseline).
	Disabled bool
}

func (p *Policy) fill() {
	if p.TargetUtil <= 0 || p.TargetUtil > 1 {
		p.TargetUtil = 0.65
	}
	if p.Min <= 0 {
		p.Min = 1
	}
	if p.Max <= 0 {
		p.Max = 1024
	}
	if p.Max < p.Min {
		p.Max = p.Min
	}
	if p.CooldownSteps <= 0 {
		p.CooldownSteps = 3
	}
	if p.ProvisionDelaySteps < 0 {
		p.ProvisionDelaySteps = 2
	}
}

// The modeled service.
const (
	// sloUtil is the utilization above which a step counts as an SLO
	// violation (queueing delay blows up past it).
	sloUtil = 0.9
	// baseLatency is the unloaded per-request latency, which the
	// SLO-driven policy's latency model scales (SLOTargetP99).
	baseLatency = 2 * time.Millisecond
)

// Config configures a simulation.
type Config struct {
	// PerNodeCapacity is the request rate one node sustains; required.
	PerNodeCapacity float64
	// Policy is the autoscaler.
	Policy Policy
	// SpotPreemptProb is the per-step, per-node probability of losing a
	// node to a spot reclaim.
	SpotPreemptProb float64
	// Seed drives preemption and latency-jitter randomness.
	Seed uint64
}

// Result summarizes a run.
type Result struct {
	// NodeSteps is the cost integral: Σ active nodes per step.
	NodeSteps int64
	// AvgUtil is the mean utilization over steps (capped at 1 per step).
	AvgUtil float64
	// Violations counts steps where utilization exceeded sloUtil.
	Violations int
	// ViolationFrac = Violations / steps.
	ViolationFrac float64
	// Preemptions counts nodes lost to spot reclaims.
	Preemptions int
	// ScaleUps and ScaleDowns count scaling actions taken.
	ScaleUps, ScaleDowns int
	// PeakNodes is the largest active fleet seen.
	PeakNodes int
	// UtilSeries is the per-step utilization (for plotting).
	UtilSeries []float64
	// NodeSeries is the per-step active fleet size.
	NodeSeries []int
	// P99Series is the per-step windowed p99 of modeled request latency
	// (only populated when the SLO-driven policy runs).
	P99Series []time.Duration
}

// Simulate runs the trace under cfg.
func Simulate(trace []workload.LoadPoint, cfg Config) Result {
	if cfg.PerNodeCapacity <= 0 {
		panic("elastic: PerNodeCapacity must be positive")
	}
	cfg.Policy.fill()
	r := rng.New(cfg.Seed)
	// One trace step is one virtual second; the latency histogram
	// windows at the same width so each step reads its own window's p99.
	hist := metrics.NewWindowedHistogram(time.Second)

	active := cfg.Policy.Min
	pending := make([]int, 0) // steps remaining until each pending node is up
	cooldown := 0
	res := Result{}

	for step, pt := range trace {
		// Pending nodes come up.
		var still []int
		for _, left := range pending {
			if left <= 1 {
				active++
			} else {
				still = append(still, left-1)
			}
		}
		pending = still

		// Spot preemptions.
		if cfg.SpotPreemptProb > 0 {
			lost := 0
			for i := 0; i < active; i++ {
				if r.Float64() < cfg.SpotPreemptProb {
					lost++
				}
			}
			if active-lost < 1 {
				lost = active - 1
			}
			active -= lost
			res.Preemptions += lost
		}

		// Serve this step.
		capTotal := float64(active) * cfg.PerNodeCapacity
		util := pt.Rate / capTotal
		recorded := math.Min(util, 1)
		res.UtilSeries = append(res.UtilSeries, recorded)
		res.NodeSeries = append(res.NodeSeries, active)
		res.AvgUtil += recorded
		if util > sloUtil {
			res.Violations++
		}
		res.NodeSteps += int64(active)
		if active > res.PeakNodes {
			res.PeakNodes = active
		}

		// The SLO-driven policy observes modeled request latency for this
		// step regardless of whether it will scale, so P99Series and the
		// histogram reflect the whole run.
		var p99 time.Duration
		if cfg.Policy.SLOTargetP99 > 0 {
			p99 = observeStepLatency(hist, r, step, util)
			res.P99Series = append(res.P99Series, p99)
		}

		// Autoscaler reacts to the observed signal.
		if cooldown > 0 {
			cooldown--
		}
		switch {
		case cfg.Policy.Disabled:
			if active < cfg.Policy.Min {
				// Static fleets replace preempted nodes immediately.
				active = cfg.Policy.Min
			}
		case cfg.Policy.SLOTargetP99 > 0:
			// SLO tracking: scale on the windowed p99, not utilization.
			provisioned := active + len(pending)
			switch {
			case p99 > cfg.Policy.SLOTargetP99 && provisioned < cfg.Policy.Max:
				add := provisioned / 4
				if add < 1 {
					add = 1
				}
				if provisioned+add > cfg.Policy.Max {
					add = cfg.Policy.Max - provisioned
				}
				for i := 0; i < add; i++ {
					if cfg.Policy.ProvisionDelaySteps == 0 {
						active++
					} else {
						pending = append(pending, cfg.Policy.ProvisionDelaySteps)
					}
				}
				res.ScaleUps++
			case p99 < cfg.Policy.SLOTargetP99/2 && cooldown == 0 && active > cfg.Policy.Min && len(pending) == 0:
				// Latency holds far under target: shed one node at a
				// time, gated by cooldown — scale-down mistakes cost
				// SLO breaches, so the policy is deliberately slower
				// downhill than uphill.
				active--
				cooldown = cfg.Policy.CooldownSteps
				res.ScaleDowns++
			}
		default:
			desired := int(math.Ceil(pt.Rate / (cfg.PerNodeCapacity * cfg.Policy.TargetUtil)))
			if desired < cfg.Policy.Min {
				desired = cfg.Policy.Min
			}
			if desired > cfg.Policy.Max {
				desired = cfg.Policy.Max
			}
			provisioned := active + len(pending)
			switch {
			case desired > provisioned:
				for i := provisioned; i < desired; i++ {
					if cfg.Policy.ProvisionDelaySteps == 0 {
						active++
					} else {
						pending = append(pending, cfg.Policy.ProvisionDelaySteps)
					}
				}
				res.ScaleUps++
			case desired < active && cooldown == 0:
				active = desired
				cooldown = cfg.Policy.CooldownSteps
				res.ScaleDowns++
			}
		}
	}
	if len(trace) > 0 {
		res.AvgUtil /= float64(len(trace))
		res.ViolationFrac = float64(res.Violations) / float64(len(trace))
	}
	return res
}

// observeStepLatency models one step of request latency on a fleet at
// the given utilization and returns the step window's p99. The model is
// the M/M/1 queueing curve lat = baseLatency/(1-rho) with rho capped at
// 0.98 (past saturation the backlog term below takes over), plus a
// linear backlog penalty once offered load exceeds capacity, sampled
// with seeded uniform jitter so the window has a distribution rather
// than a point.
func observeStepLatency(hist *metrics.WindowedHistogram, r *rng.RNG, step int, util float64) time.Duration {
	rho := math.Min(util, 0.98)
	lat := float64(baseLatency) / (1 - rho)
	if util > 1 {
		lat += float64(baseLatency) * (util - 1) * 25
	}
	at := time.Duration(step) * time.Second
	const samples = 24
	for k := 0; k < samples; k++ {
		f := 0.75 + 0.5*r.Float64()
		hist.Observe(at, int64(lat*f))
	}
	for _, w := range hist.Series() {
		if w.Start == at {
			return time.Duration(w.P99)
		}
	}
	return 0
}

// Static runs the trace with a fixed fleet of n nodes.
func Static(trace []workload.LoadPoint, cfg Config, n int) Result {
	cfg.Policy = Policy{Min: n, Max: n, Disabled: true}
	return Simulate(trace, cfg)
}

// PeakNodesFor returns the fleet size needed to hold the trace's peak at
// or under targetUtil — the peak-static provisioning baseline.
func PeakNodesFor(trace []workload.LoadPoint, perNodeCapacity, targetUtil float64) int {
	peak := 0.0
	for _, p := range trace {
		if p.Rate > peak {
			peak = p.Rate
		}
	}
	return int(math.Ceil(peak / (perNodeCapacity * targetUtil)))
}
