// Package workload generates every synthetic dataset the experiments run
// on, standing in for the production traces and benchmark inputs the
// domain's papers use: TeraSort records, Zipf-worded text corpora, skewed
// key-value operation streams, R-MAT power-law graphs, clickstream events,
// labelled classification data and diurnal load traces. All generators are
// seeded and deterministic.
package workload

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/rng"
	"repro/internal/serde"
)

// ---------------------------------------------------------------------------
// TeraSort

// TeraRecord is the classic 100-byte sort record: a 10-byte random key and
// a 90-byte payload.
type TeraRecord struct {
	Key   []byte // 10 bytes
	Value []byte // 90 bytes
}

// TeraGen produces n TeraSort records.
func TeraGen(n int, seed uint64) []TeraRecord {
	r := rng.New(seed)
	out := make([]TeraRecord, n)
	for i := range out {
		k := make([]byte, 10)
		v := make([]byte, 90)
		r.Bytes(k)
		r.Bytes(v)
		out[i] = TeraRecord{Key: k, Value: v}
	}
	return out
}

// TeraSplits returns p-1 ascending split points that partition the 10-byte
// key space evenly — the range partitioner input for a p-way TeraSort.
func TeraSplits(p int) [][]byte {
	var out [][]byte
	for i := 1; i < p; i++ {
		v := uint64(i) * (math.MaxUint64 / uint64(p))
		key := make([]byte, 10)
		copy(key, serde.SortableUint64Key(v))
		out = append(out, key)
	}
	return out
}

// ---------------------------------------------------------------------------
// Text

// Vocabulary returns n distinct synthetic words.
func Vocabulary(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("word%05d", i)
	}
	return out
}

// Text generates `lines` lines of wordsPerLine words drawn from a Zipf(s)
// distribution over a vocabulary of vocab words — the WordCount input.
func Text(lines, wordsPerLine, vocab int, s float64, seed uint64) []string {
	r := rng.New(seed)
	z := rng.NewZipf(r, vocab, s)
	words := Vocabulary(vocab)
	out := make([]string, lines)
	var sb strings.Builder
	for i := range out {
		sb.Reset()
		for w := 0; w < wordsPerLine; w++ {
			if w > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(words[z.Next()])
		}
		out[i] = sb.String()
	}
	return out
}

// ---------------------------------------------------------------------------
// Key-value operations

// OpKind discriminates KV operations.
type OpKind int

// KV operation kinds.
const (
	OpGet OpKind = iota
	OpPut
)

// Op is one key-value store operation.
type Op struct {
	Kind  OpKind
	Key   string
	Value []byte
}

// KVOps generates n operations over `keys` distinct keys with Zipf(s) skew
// and the given read fraction. Values are valueSize random bytes.
func KVOps(n, keys int, s, readFrac float64, valueSize int, seed uint64) []Op {
	r := rng.New(seed)
	z := rng.NewZipf(r, keys, s)
	out := make([]Op, n)
	for i := range out {
		k := fmt.Sprintf("key-%08d", z.Next())
		if r.Float64() < readFrac {
			out[i] = Op{Kind: OpGet, Key: k}
		} else {
			v := make([]byte, valueSize)
			r.Bytes(v)
			out[i] = Op{Kind: OpPut, Key: k, Value: v}
		}
	}
	return out
}

// TxnSpec parameterizes a transactional trace: each transaction reads
// and writes Span distinct keys drawn Zipf(Skew) from Keys.
type TxnSpec struct {
	// N is the transaction count.
	N int
	// Keys is the keyspace size; Span the distinct keys per transaction.
	Keys, Span int
	// Skew is the Zipf exponent (0 = uniform).
	Skew float64
	// ValueSize is the written value length in bytes.
	ValueSize int
	// Seed drives the generator.
	Seed uint64
}

// TxnOp is one generated multi-key transaction: read all Reads, write
// all Writes atomically.
type TxnOp struct {
	Reads  []string
	Writes map[string][]byte
}

// TxnOps generates a deterministic transactional trace from spec. Every
// transaction touches spec.Span distinct keys, reading each and writing
// each — the classic read-modify-write shape that maximizes conflict
// pressure under skew.
func TxnOps(spec TxnSpec) []TxnOp {
	if spec.Span <= 0 {
		spec.Span = 2
	}
	if spec.Span > spec.Keys {
		spec.Span = spec.Keys
	}
	r := rng.New(spec.Seed)
	z := rng.NewZipf(r, spec.Keys, spec.Skew)
	out := make([]TxnOp, spec.N)
	for i := range out {
		seen := map[string]bool{}
		reads := make([]string, 0, spec.Span)
		writes := make(map[string][]byte, spec.Span)
		for len(reads) < spec.Span {
			k := fmt.Sprintf("key-%08d", z.Next())
			if seen[k] {
				continue
			}
			seen[k] = true
			reads = append(reads, k)
			v := make([]byte, spec.ValueSize)
			r.Bytes(v)
			writes[k] = v
		}
		out[i] = TxnOp{Reads: reads, Writes: writes}
	}
	return out
}

// ---------------------------------------------------------------------------
// Multi-tenant open-loop arrival traces

// YCSBMix returns the read fraction of the named YCSB core-workload mix:
// A (update-heavy, 50% reads), B (read-mostly, 95%) or C (read-only).
func YCSBMix(name string) (readFrac float64, ok bool) {
	switch name {
	case "A", "a":
		return 0.5, true
	case "B", "b":
		return 0.95, true
	case "C", "c":
		return 1.0, true
	}
	return 0, false
}

// TenantSpec describes one tenant of a multi-tenant serving workload:
// its open-loop arrival rate, its fair-queueing weight and shedding
// priority at admission, and its YCSB-style operation mix over a private
// Zipf-skewed keyspace.
type TenantSpec struct {
	// ID names the tenant and prefixes its keys (tenants never collide).
	ID string
	// RatePerSec is the open-loop mean arrival rate (Poisson).
	RatePerSec float64
	// Weight is the tenant's weighted-fair share at admission (default 1).
	Weight float64
	// Priority is the shedding tier (lower sheds first).
	Priority int
	// ReadFrac is the read fraction of the op mix (see YCSBMix).
	ReadFrac float64
	// Keys is the tenant keyspace size (default 1024); Skew the Zipf
	// exponent over it (0 = uniform); ValueSize the write payload bytes
	// (default 128).
	Keys      int
	Skew      float64
	ValueSize int
}

func (t *TenantSpec) fill() {
	if t.Weight <= 0 {
		t.Weight = 1
	}
	if t.Keys <= 0 {
		t.Keys = 1024
	}
	if t.ValueSize <= 0 {
		t.ValueSize = 128
	}
}

// Arrival is one event of a multi-tenant arrival trace.
type Arrival struct {
	At     time.Duration
	Tenant int
	Op     Op
}

// ArrivalGen generates one tenant's open-loop arrival stream
// incrementally: exponential inter-arrival gaps at RatePerSec scaled by
// a mutable rate factor (the hook traffic-burst and tenant-flood chaos
// events turn), operations drawn Zipf(Skew) over the tenant keyspace
// with the tenant's read fraction. Deterministic given the seed and the
// virtual times at which SetFactor is called. Not safe for concurrent
// use; the simulator drives it from its single event loop.
type ArrivalGen struct {
	spec   TenantSpec
	tenant int
	r      *rng.RNG
	z      *rng.Zipf
	next   time.Duration
	factor float64
}

// NewArrivalGen builds a generator for tenant (an index the trace
// carries through to admission) from spec. The first arrival is one
// exponential gap after the epoch.
func NewArrivalGen(tenant int, spec TenantSpec, seed uint64) *ArrivalGen {
	spec.fill()
	r := rng.New(seed + uint64(tenant)*0x9e3779b97f4a7c15)
	g := &ArrivalGen{
		spec:   spec,
		tenant: tenant,
		r:      r,
		z:      rng.NewZipf(r, spec.Keys, spec.Skew),
		factor: 1,
	}
	g.next = g.gap()
	return g
}

func (g *ArrivalGen) gap() time.Duration {
	rate := g.spec.RatePerSec * g.factor
	if rate <= 0 {
		rate = 1e-9 // effectively paused
	}
	return time.Duration(g.r.ExpFloat64() / rate * float64(time.Second))
}

// Peek returns the next arrival time without consuming it.
func (g *ArrivalGen) Peek() time.Duration { return g.next }

// SetFactor scales the tenant's arrival rate from now on (burst and
// flood injection); factor 1 restores the configured rate.
func (g *ArrivalGen) SetFactor(f float64) {
	if f <= 0 {
		f = 1
	}
	g.factor = f
}

// Next consumes and returns the next arrival.
func (g *ArrivalGen) Next() Arrival {
	at := g.next
	g.next += g.gap()
	key := fmt.Sprintf("%s-%07d", g.spec.ID, g.z.Next())
	op := Op{Kind: OpGet, Key: key}
	if g.r.Float64() >= g.spec.ReadFrac {
		v := make([]byte, g.spec.ValueSize)
		g.r.Bytes(v)
		op = Op{Kind: OpPut, Key: key, Value: v}
	}
	return Arrival{At: at, Tenant: g.tenant, Op: op}
}

// ---------------------------------------------------------------------------
// Graphs

// Edge is a directed, weighted graph edge.
type Edge struct {
	From, To int64
	Weight   float64
}

// RMAT generates 2^scale vertices and edgeFactor*2^scale edges with the
// R-MAT recursive partitioning (a=0.57 b=0.19 c=0.19 d=0.05), yielding the
// skewed degree distribution of real-world graphs.
func RMAT(scale, edgeFactor int, seed uint64) []Edge {
	r := rng.New(seed)
	n := int64(1) << uint(scale)
	m := int(n) * edgeFactor
	const a, b, c = 0.57, 0.19, 0.19
	out := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		var src, dst int64
		for bit := int64(n) >> 1; bit > 0; bit >>= 1 {
			u := r.Float64()
			switch {
			case u < a:
				// top-left: neither bit set
			case u < a+b:
				dst |= bit
			case u < a+b+c:
				src |= bit
			default:
				src |= bit
				dst |= bit
			}
		}
		out = append(out, Edge{From: src, To: dst, Weight: 1 + r.Float64()})
	}
	return out
}

// ---------------------------------------------------------------------------
// Clickstream

// Click is one clickstream event for the streaming experiments.
type Click struct {
	User      string
	Page      string
	EventTime time.Duration
}

// Clickstream generates n events over `users` users (Zipf-skewed) and
// `pages` pages at a mean rate of ratePerSec, with exponential
// inter-arrival times and occasional out-of-order timestamps (up to
// maxDisorder behind).
func Clickstream(n, users, pages int, ratePerSec float64, maxDisorder time.Duration, seed uint64) []Click {
	r := rng.New(seed)
	zu := rng.NewZipf(r, users, 0.9)
	now := time.Duration(0)
	out := make([]Click, n)
	for i := range out {
		now += time.Duration(r.ExpFloat64() / ratePerSec * float64(time.Second))
		t := now
		if maxDisorder > 0 && r.Float64() < 0.1 {
			back := time.Duration(r.Float64() * float64(maxDisorder))
			if back < t {
				t -= back
			}
		}
		out[i] = Click{
			User:      fmt.Sprintf("user-%05d", zu.Next()),
			Page:      fmt.Sprintf("/page/%d", r.Intn(pages)),
			EventTime: t,
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Classification data

// LogisticData is a synthetic binary classification dataset generated from
// a known true weight vector, for the parameter-server experiments.
type LogisticData struct {
	X           [][]float64
	Y           []float64 // 0 or 1
	TrueWeights []float64
}

// Logistic generates n examples of dimension d: labels are the sign of
// w·x under a random true weight vector, with 5% of labels flipped, so a
// well-trained model reaches ~95% accuracy.
func Logistic(n, d int, seed uint64) LogisticData {
	r := rng.New(seed)
	w := make([]float64, d)
	for i := range w {
		w[i] = r.NormFloat64()
	}
	data := LogisticData{
		X:           make([][]float64, n),
		Y:           make([]float64, n),
		TrueWeights: w,
	}
	for i := 0; i < n; i++ {
		x := make([]float64, d)
		dot := 0.0
		for j := range x {
			x[j] = r.NormFloat64()
			dot += x[j] * w[j]
		}
		y := 0.0
		if dot > 0 {
			y = 1
		}
		if r.Float64() < 0.05 {
			y = 1 - y
		}
		data.X[i] = x
		data.Y[i] = y
	}
	return data
}

// ---------------------------------------------------------------------------
// Load traces

// LoadPoint is one step of an offered-load trace.
type LoadPoint struct {
	Time time.Duration
	Rate float64 // requests per second
}

// DiurnalTrace generates a load trace of the given length with a sinusoidal
// day/night cycle between baseRate and peakRate plus random bursts of up to
// burstFactor times the current level.
func DiurnalTrace(steps int, step time.Duration, baseRate, peakRate, burstFactor float64, seed uint64) []LoadPoint {
	r := rng.New(seed)
	out := make([]LoadPoint, steps)
	period := 24 * time.Hour
	for i := range out {
		t := time.Duration(i) * step
		phase := 2 * math.Pi * float64(t%period) / float64(period)
		level := baseRate + (peakRate-baseRate)*(0.5-0.5*math.Cos(phase))
		if r.Float64() < 0.03 {
			level *= 1 + r.Float64()*(burstFactor-1)
		}
		out[i] = LoadPoint{Time: t, Rate: level}
	}
	return out
}
