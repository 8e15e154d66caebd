package workload

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"
	"time"
)

// TestGeneratorsMatchParent pins the seeded generators the experiments,
// the overload simulator and the benchmark draw their inputs from to the
// commit its constants were recorded on. Each generator hashes on its
// own, so a failure names the one that moved; record a new constant on
// the parent commit first if the move is deliberate.
func TestGeneratorsMatchParent(t *testing.T) {
	for _, c := range []struct {
		name   string
		digest func(hash.Hash64)
		want   uint64
	}{
		{"KVOps", digestKVOps, 0xa757cd29b46ce037},
		{"TxnOps", digestTxnOps, 0xf16161d89dae3424},
		{"TeraGen", digestTeraGen, 0xe98c3fbf44e2782e},
		{"YCSBTenants", digestYCSBTenants, 0xf2115bcbfeaeef07},
		{"ArrivalGen", digestArrivalGen, 0x86ecdf101556b010},
		{"DiurnalTrace", digestDiurnal, 0x64810acf1cf8183f},
	} {
		h := fnv.New64a()
		c.digest(h)
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: digest %#x, want %#x", c.name, got, c.want)
		}
	}
}

func word(h hash.Hash64, v uint64) { _, _ = h.Write(binary.LittleEndian.AppendUint64(nil, v)) }

func str(h hash.Hash64, s string) {
	word(h, uint64(len(s)))
	_, _ = h.Write([]byte(s))
}

func op(h hash.Hash64, o Op) {
	word(h, uint64(o.Kind))
	str(h, o.Key)
	str(h, string(o.Value))
}

func digestKVOps(h hash.Hash64) {
	for _, skew := range []float64{0, 0.99} {
		for _, o := range KVOps(400, 100, skew, 0.7, 16, 5) {
			op(h, o)
		}
	}
}

func digestTxnOps(h hash.Hash64) {
	for _, tx := range TxnOps(TxnSpec{N: 200, Keys: 50, Span: 3, Skew: 0.9, ValueSize: 8, Seed: 6}) {
		word(h, uint64(len(tx.Reads)))
		for _, k := range tx.Reads {
			str(h, k)
			str(h, string(tx.Writes[k]))
		}
	}
}

func digestTeraGen(h hash.Hash64) {
	for _, r := range TeraGen(300, 7) {
		_, _ = h.Write(r.Key)
		_, _ = h.Write(r.Value)
	}
}

// ycsbTenants is the three-tenant YCSB A/B/C mix of the overload
// simulator's tests and E-OVL, at 900 ops/s in aggregate.
func ycsbTenants() []TenantSpec {
	var out []TenantSpec
	for i, m := range []string{"A", "B", "C"} {
		rf, _ := YCSBMix(m)
		out = append(out, TenantSpec{
			ID: "ycsb-" + m, RatePerSec: 300, Weight: 1, Priority: i,
			ReadFrac: rf, Keys: 256, Skew: 0.99,
		})
	}
	return out
}

func digestYCSBTenants(h hash.Hash64) {
	for _, a := range MultiTenantArrivals(ycsbTenants(), 500*time.Millisecond, 8) {
		word(h, uint64(a.At))
		word(h, uint64(a.Tenant))
		op(h, a.Op)
	}
}

// digestArrivalGen drives one generator directly, with a burst factor
// turned on and off mid-stream the way the chaos hooks do.
func digestArrivalGen(h hash.Hash64) {
	g := NewArrivalGen(2, TenantSpec{ID: "t", RatePerSec: 1000, ReadFrac: 0.5, Skew: 0.5}, 9)
	for i := 0; i < 300; i++ {
		switch i {
		case 100:
			g.SetFactor(4)
		case 200:
			g.SetFactor(0)
		}
		word(h, uint64(g.Peek()))
		a := g.Next()
		word(h, uint64(a.At))
		word(h, uint64(a.Tenant))
		op(h, a.Op)
	}
}

func digestDiurnal(h hash.Hash64) {
	for _, p := range DiurnalTrace(288, 5*time.Minute, 100, 1000, 2.5, 10) {
		word(h, uint64(p.Time))
		word(h, math.Float64bits(p.Rate))
	}
}
