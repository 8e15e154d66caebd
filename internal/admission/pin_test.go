package admission

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// TestSimMatchesParent pins the overload simulator behind E-OVL and the
// kv benchmark family's overload segment to the commit its constants were
// recorded on: the defended run, the undefended control and the
// bad-coordinator run the breakers route around, with every SimResult
// field and window hashed. TestSimDeterministic only compares two runs in
// one process, which a change that moves both alike passes; this does
// not. Record a new constant on the parent commit first if the move is
// deliberate.
func TestSimMatchesParent(t *testing.T) {
	baseline := runtime.NumGoroutine()
	defer waitSimGoroutines(t, baseline)
	var badCalls int64
	for _, c := range []struct {
		name string
		cfg  SimConfig
		want uint64
	}{
		{"defended", overloadConfig(1.5, true, 42), 0x7e999ff66d5eed2a},
		{"control", overloadConfig(1.5, false, 42), 0xfac3c2186d2a480a},
		{"bad-node", badNodeConfig(&badCalls), 0xcec6100b3f5b8227},
	} {
		if got := simDigest(NewSim(c.cfg).Run()); got != c.want {
			t.Errorf("%s: digest %#x, want %#x", c.name, got, c.want)
		}
	}
}

func simDigest(r SimResult) uint64 {
	h := fnv.New64a()
	word := func(v uint64) { _, _ = h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for _, v := range []int64{r.Offered, r.Admitted, r.Goodput, r.ShedQuota, r.ShedQueue,
		r.ShedSojourn, r.Timeouts, r.Failures, r.Retries, r.RetriesSuppressed,
		r.BreakerOpens, int64(r.VirtualElapsed)} {
		word(uint64(v))
	}
	word(math.Float64bits(r.GoodputPerSec))
	word(r.Checksum)
	l := r.AdmittedLatency
	for _, v := range []int64{l.Count, l.Sum, l.Min, l.Max, l.P50, l.P95, l.P99, l.P999} {
		word(uint64(v))
	}
	word(math.Float64bits(l.Mean))
	word(uint64(len(r.Windows)))
	for _, w := range r.Windows {
		for _, v := range []int64{int64(w.Start), w.Count, w.Min, w.Max, w.P50, w.P95, w.P99, w.P999} {
			word(uint64(v))
		}
		word(math.Float64bits(w.Mean))
		word(math.Float64bits(w.PerSec))
	}
	return h.Sum64()
}
