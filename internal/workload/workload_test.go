package workload

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTeraGenShape(t *testing.T) {
	recs := TeraGen(1000, 1)
	if len(recs) != 1000 {
		t.Fatalf("n = %d", len(recs))
	}
	for _, r := range recs {
		if len(r.Key) != 10 || len(r.Value) != 90 {
			t.Fatalf("record shape %d/%d", len(r.Key), len(r.Value))
		}
	}
}

func TestTeraGenDeterministicAndSpread(t *testing.T) {
	a := TeraGen(100, 7)
	b := TeraGen(100, 7)
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) {
			t.Fatal("not deterministic")
		}
	}
	// Keys must be well spread: first bytes should cover many values.
	firsts := map[byte]bool{}
	for _, r := range a {
		firsts[r.Key[0]] = true
	}
	if len(firsts) < 50 {
		t.Fatalf("only %d distinct first key bytes in 100 records", len(firsts))
	}
}

func TestTeraSplitsOrderedAndBalanced(t *testing.T) {
	splits := TeraSplits(8)
	if len(splits) != 7 {
		t.Fatalf("splits = %d", len(splits))
	}
	for i := 1; i < len(splits); i++ {
		if bytes.Compare(splits[i-1], splits[i]) >= 0 {
			t.Fatal("splits not ascending")
		}
	}
	// Empirical balance: partition 100k random keys, no partition over 2x.
	recs := TeraGen(20000, 3)
	counts := make([]int, 8)
	for _, r := range recs {
		p := sort.Search(len(splits), func(i int) bool {
			return bytes.Compare(splits[i], r.Key) > 0
		})
		counts[p]++
	}
	for p, c := range counts {
		if c < 1000 || c > 5000 {
			t.Fatalf("partition %d has %d of 20000 keys", p, c)
		}
	}
}

func TestTextShapeAndSkew(t *testing.T) {
	lines := Text(200, 10, 100, 1.0, 5)
	if len(lines) != 200 {
		t.Fatalf("lines = %d", len(lines))
	}
	counts := map[string]int{}
	for _, l := range lines {
		ws := strings.Fields(l)
		if len(ws) != 10 {
			t.Fatalf("line has %d words", len(ws))
		}
		for _, w := range ws {
			counts[w]++
		}
	}
	// Zipf: the most common word appears far more than the median word.
	var freqs []int
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	if freqs[0] < 5*freqs[len(freqs)/2] {
		t.Fatalf("no skew: top=%d median=%d", freqs[0], freqs[len(freqs)/2])
	}
}

func TestKVOpsMix(t *testing.T) {
	ops := KVOps(10000, 1000, 0.99, 0.9, 64, 11)
	reads := 0
	keyCounts := map[string]int{}
	for _, op := range ops {
		if op.Kind == OpGet {
			reads++
			if op.Value != nil {
				t.Fatal("get carries a value")
			}
		} else if len(op.Value) != 64 {
			t.Fatalf("put value size %d", len(op.Value))
		}
		keyCounts[op.Key]++
	}
	frac := float64(reads) / 10000
	if frac < 0.88 || frac > 0.92 {
		t.Fatalf("read fraction %.3f, want ~0.9", frac)
	}
	// Zipf skew: hottest key much hotter than average.
	max := 0
	for _, c := range keyCounts {
		if c > max {
			max = c
		}
	}
	if max < 100 {
		t.Fatalf("hottest key only %d/10000 ops; skew missing", max)
	}
}

func TestRMATShapeAndSkew(t *testing.T) {
	edges := RMAT(10, 8, 13) // 1024 vertices, 8192 edges
	if len(edges) != 8192 {
		t.Fatalf("edges = %d", len(edges))
	}
	deg := map[int64]int{}
	n := int64(1 << 10)
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			t.Fatalf("edge out of range: %+v", e)
		}
		if e.Weight < 1 || e.Weight > 2 {
			t.Fatalf("weight %v out of [1,2]", e.Weight)
		}
		deg[e.From]++
	}
	// Power-law-ish: max out-degree much larger than mean (8).
	max := 0
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	if max < 40 {
		t.Fatalf("max degree %d; R-MAT skew missing", max)
	}
}

func TestClickstreamTimestampsMostlyOrdered(t *testing.T) {
	clicks := Clickstream(5000, 100, 20, 1000, 50*time.Millisecond, 17)
	if len(clicks) != 5000 {
		t.Fatal("wrong count")
	}
	outOfOrder := 0
	var prev time.Duration
	for _, c := range clicks {
		if c.EventTime < prev {
			outOfOrder++
		} else {
			prev = c.EventTime
		}
	}
	if outOfOrder == 0 {
		t.Fatal("expected some out-of-order events")
	}
	if outOfOrder > 1000 {
		t.Fatalf("%d/5000 out of order; too many", outOfOrder)
	}
	// Mean rate ~1000/s → 5000 events in ~5s.
	span := clicks[len(clicks)-1].EventTime
	if span < 3*time.Second || span > 8*time.Second {
		t.Fatalf("span = %v, want ~5s", span)
	}
}

func TestLogisticLearnable(t *testing.T) {
	data := Logistic(2000, 10, 19)
	if len(data.X) != 2000 || len(data.Y) != 2000 || len(data.TrueWeights) != 10 {
		t.Fatal("shape wrong")
	}
	// The true weights must classify most points correctly (~5% noise).
	correct := 0
	for i := range data.X {
		dot := 0.0
		for j := range data.X[i] {
			dot += data.X[i][j] * data.TrueWeights[j]
		}
		pred := 0.0
		if dot > 0 {
			pred = 1
		}
		if pred == data.Y[i] {
			correct++
		}
	}
	acc := float64(correct) / 2000
	if acc < 0.80 {
		t.Fatalf("true weights accuracy %.3f; data not learnable", acc)
	}
}

func TestDiurnalTraceShape(t *testing.T) {
	trace := DiurnalTrace(288, 5*time.Minute, 100, 1000, 3, 23)
	if len(trace) != 288 {
		t.Fatal("wrong length")
	}
	min, max := trace[0].Rate, trace[0].Rate
	for _, p := range trace {
		if p.Rate < min {
			min = p.Rate
		}
		if p.Rate > max {
			max = p.Rate
		}
	}
	if min < 90 {
		t.Fatalf("rate dipped to %v below base", min)
	}
	if max < 900 {
		t.Fatalf("peak %v never approached peakRate", max)
	}
}

func BenchmarkTeraGen(b *testing.B) {
	b.SetBytes(100 * 10000)
	for i := 0; i < b.N; i++ {
		_ = TeraGen(10000, uint64(i))
	}
}

func BenchmarkRMAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = RMAT(12, 8, uint64(i))
	}
}

// TestKVOpsSkewZeroUniform verifies what E5's zipf-s 0.00 rows assume:
// a zero Zipf exponent must produce near-uniform key frequencies.
func TestKVOpsSkewZeroUniform(t *testing.T) {
	cases := []struct {
		name string
		n    int
		keys int
	}{
		{"small-keyspace", 40000, 16},
		{"medium-keyspace", 60000, 64},
		{"wide-keyspace", 100000, 256},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ops := KVOps(tc.n, tc.keys, 0, 0.5, 16, 99)
			freq := map[string]int{}
			for _, op := range ops {
				freq[op.Key]++
			}
			if len(freq) != tc.keys {
				t.Fatalf("saw %d distinct keys, want %d", len(freq), tc.keys)
			}
			expect := float64(tc.n) / float64(tc.keys)
			for k, c := range freq {
				// 4-sigma binomial bound around the uniform expectation.
				sigma := math.Sqrt(expect * (1 - 1/float64(tc.keys)))
				if d := float64(c) - expect; d > 4*sigma || d < -4*sigma {
					t.Fatalf("key %s count %d deviates from uniform %f beyond 4 sigma", k, c, expect)
				}
			}
		})
	}
	// Sanity contrast: heavy skew must NOT be uniform.
	ops := KVOps(40000, 16, 1.2, 0.5, 16, 99)
	freq := map[string]int{}
	for _, op := range ops {
		freq[op.Key]++
	}
	max, min := 0, 1<<30
	for _, c := range freq {
		if c > max {
			max = c
		}
		if c < min {
			min = c
		}
	}
	if max < 4*min {
		t.Fatalf("zipf 1.2 looks uniform: max %d min %d", max, min)
	}
}

func TestArrivalGenRateAndFactor(t *testing.T) {
	spec := TenantSpec{ID: "t0", RatePerSec: 1000, ReadFrac: 0.95, Keys: 64}
	g := NewArrivalGen(0, spec, 5)
	var last time.Duration
	n := 0
	for g.Peek() < time.Second {
		a := g.Next()
		if a.At < last {
			t.Fatalf("arrivals out of order: %v after %v", a.At, last)
		}
		if !strings.HasPrefix(a.Op.Key, "t0-") {
			t.Fatalf("key %q not tenant-prefixed", a.Op.Key)
		}
		last = a.At
		n++
	}
	// Poisson(1000) over 1s: 4-sigma is ~±127.
	if n < 850 || n > 1150 {
		t.Fatalf("1s at 1000/s produced %d arrivals", n)
	}
	// Doubling the factor doubles the rate from here on.
	g.SetFactor(2)
	n2 := 0
	for g.Peek() < 2*time.Second {
		g.Next()
		n2++
	}
	if n2 < 1700 || n2 > 2300 {
		t.Fatalf("1s at factor 2 produced %d arrivals", n2)
	}
	// Determinism.
	h1 := NewArrivalGen(0, spec, 5)
	h2 := NewArrivalGen(0, spec, 5)
	for i := 0; i < 100; i++ {
		a, b := h1.Next(), h2.Next()
		if a.At != b.At || a.Op.Key != b.Op.Key || a.Op.Kind != b.Op.Kind {
			t.Fatalf("arrival %d differs between same-seed generators", i)
		}
	}
}

func TestTxnOpsDeterministicAndDistinct(t *testing.T) {
	spec := TxnSpec{N: 50, Keys: 64, Span: 3, Skew: 0.9, ValueSize: 16, Seed: 5}
	a := TxnOps(spec)
	b := TxnOps(spec)
	if len(a) != 50 {
		t.Fatalf("len = %d, want 50", len(a))
	}
	for i := range a {
		if len(a[i].Reads) != 3 || len(a[i].Writes) != 3 {
			t.Fatalf("txn %d spans %d/%d keys, want 3/3", i, len(a[i].Reads), len(a[i].Writes))
		}
		seen := map[string]bool{}
		for _, k := range a[i].Reads {
			if seen[k] {
				t.Fatalf("txn %d repeats key %s", i, k)
			}
			seen[k] = true
			if b[i].Reads == nil || string(a[i].Writes[k]) != string(b[i].Writes[k]) {
				t.Fatalf("txn %d not deterministic at key %s", i, k)
			}
		}
	}
}
