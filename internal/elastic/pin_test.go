package elastic

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"
)

// TestSimulateMatchesParent pins E11's autoscaler to the commit its
// constants were recorded on: the utilization policy, the SLO-driven
// policy and a run under spot preemptions, with every Result field and
// series hashed. A change that moves one step of one run fails it; record
// the new constant on the parent commit first if the move is deliberate.
func TestSimulateMatchesParent(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"utilization", Config{
			PerNodeCapacity: 50,
			Policy:          Policy{TargetUtil: 0.65, Min: 2, Max: 64},
			Seed:            1,
		}, 0x246f9c35faad546c},
		{"slo-p99", Config{
			PerNodeCapacity: 50,
			Policy:          Policy{Min: 2, Max: 64, SLOTargetP99: 20 * time.Millisecond},
			Seed:            8,
		}, 0x5e28eec4e495e542},
		{"spot", Config{
			PerNodeCapacity: 50,
			Policy:          Policy{Min: 2, Max: 64, SLOTargetP99: 40 * time.Millisecond},
			SpotPreemptProb: 0.02,
			Seed:            3,
		}, 0x377a88e18c7184e9},
	} {
		if got := resultDigest(Simulate(trace(), c.cfg)); got != c.want {
			t.Errorf("%s: digest %#x, want %#x", c.name, got, c.want)
		}
	}
}

func resultDigest(r Result) uint64 {
	h := fnv.New64a()
	word := func(v uint64) { _, _ = h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for _, v := range []int64{r.NodeSteps, int64(r.Violations), int64(r.Preemptions),
		int64(r.ScaleUps), int64(r.ScaleDowns), int64(r.PeakNodes)} {
		word(uint64(v))
	}
	word(math.Float64bits(r.AvgUtil))
	word(math.Float64bits(r.ViolationFrac))
	word(uint64(len(r.UtilSeries)))
	for _, u := range r.UtilSeries {
		word(math.Float64bits(u))
	}
	word(uint64(len(r.NodeSeries)))
	for _, n := range r.NodeSeries {
		word(uint64(n))
	}
	word(uint64(len(r.P99Series)))
	for _, p := range r.P99Series {
		word(uint64(p))
	}
	return h.Sum64()
}
