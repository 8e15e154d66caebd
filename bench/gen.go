package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
)

// The benchmark owns its input generators: nothing here calls into the
// program, so a later change to the program cannot change what the
// benchmark feeds it. Every input is a pure function of (seed, workload,
// round).

const golden = 0x9e3779b97f4a7c15

// prng is SplitMix64.
type prng struct{ s uint64 }

func (r *prng) next() uint64 {
	r.s += golden
	return mix64(r.s)
}

func (r *prng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform value in [0, 1).
func (r *prng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// roundSeed decorrelates the streams of one run: each (workload salt,
// round) pair gets its own generator.
func roundSeed(seed uint64, salt string, round int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(salt))
	return mix64(seed ^ h.Sum64() ^ uint64(round+1)*golden)
}

// fingerprint folds generated inputs into the inputs_fingerprint a result
// records; -compare refuses results whose fingerprints differ.
type fingerprint struct{ h uint64 }

func newFingerprint() *fingerprint { return &fingerprint{h: 14695981039346656037} }

func (f *fingerprint) bytes(b []byte) {
	for _, c := range b {
		f.h = (f.h ^ uint64(c)) * 1099511628211
	}
}

func (f *fingerprint) str(s string) {
	for i := 0; i < len(s); i++ {
		f.h = (f.h ^ uint64(s[i])) * 1099511628211
	}
}

func (f *fingerprint) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.bytes(b[:])
}

// zipf samples ranks in [0, n) with P(rank k) ∝ 1/(k+1)^theta through a
// precomputed CDF, then maps ranks through a seeded permutation so hot
// keys are spread over the key space (and over key ranges).
type zipf struct {
	cdf  []float64
	perm []uint32
}

func newZipf(n int, theta float64, seed uint64) *zipf {
	z := &zipf{cdf: make([]float64, n), perm: make([]uint32, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), theta)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	r := prng{s: seed}
	for i := range z.perm {
		z.perm[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		z.perm[i], z.perm[j] = z.perm[j], z.perm[i]
	}
	return z
}

func (z *zipf) sample(r *prng) int {
	k := sort.SearchFloat64s(z.cdf, r.float())
	if k >= len(z.perm) {
		k = len(z.perm) - 1
	}
	return int(z.perm[k])
}

// scaled sizes a count by -scale, never below min.
func scaled(base int, scale float64, min int) int {
	n := int(math.Round(float64(base) * scale))
	if n < min {
		n = min
	}
	return n
}

// ---- sort_wide -------------------------------------------------------------

const (
	sortKeyLen   = 10
	sortValueLen = 90
)

// genSortRound builds one round of sort_wide input split over parts source
// partitions: 10 B random keys, 90 B values whose last 45 B are one of 16
// repeated phrases (so the shuffle codec has something to find). It also
// returns the order-independent multiset hash the output must reproduce.
func genSortRound(seed uint64, round, n, parts int) (in [][]sortRec, sum uint64) {
	r := prng{s: roundSeed(seed, "sort_wide", round)}
	in = make([][]sortRec, parts)
	per := n / parts
	buf := make([]byte, sortKeyLen+sortValueLen)
	for p := range in {
		in[p] = make([]sortRec, per)
		for i := range in[p] {
			for o := 0; o < 56; o += 8 {
				binary.LittleEndian.PutUint64(buf[o:], r.next())
			}
			// Bytes 10..55 stay random; 55..100 become the phrase.
			phrase := byte('a' + r.intn(16))
			for o := sortKeyLen + 45; o < len(buf); o++ {
				buf[o] = phrase + byte((o-55)%9)
			}
			rec := sortRec{Key: string(buf[:sortKeyLen]), Value: string(buf[sortKeyLen:])}
			in[p][i] = rec
			sum += recHash(rec.Key, rec.Value)
		}
	}
	return in, sum
}

func recHash(k, v string) uint64 {
	f := newFingerprint()
	f.str(k)
	f.str(v)
	return mix64(f.h)
}

// ---- agg_combine -----------------------------------------------------------

const aggKeys = 50_000

// genAggRound builds one round of tokens and the per-key counts a
// sequential map would produce.
func genAggRound(seed uint64, round, n, parts int) (in [][]int64, want []int64) {
	r := prng{s: roundSeed(seed, "agg_combine", round)}
	in = make([][]int64, parts)
	want = make([]int64, aggKeys)
	per := n / parts
	for p := range in {
		in[p] = make([]int64, per)
		for i := range in[p] {
			tok := int64(r.next() >> 1)
			in[p][i] = tok
			want[tok%aggKeys]++
		}
	}
	return in, want
}

// ---- sql_star --------------------------------------------------------------

// sqlSizes is the star schema's row counts; customers scale with the fact
// table so the fact-fact join stays linear in the input.
type sqlSizes struct{ sales, shipments, customer, product, dates int }

func sqlSizesFor(scale float64) sqlSizes {
	return sqlSizes{
		sales:     scaled(40_000, scale, 200),
		shipments: scaled(20_000, scale, 100),
		customer:  scaled(4_000, scale, 40),
		product:   200,
		dates:     365,
	}
}

// sqlQueries are the eight pinned SQL texts: pushdown scan, top-k
// aggregate, 1/2/3-table star joins, fact-fact shuffle join, residual OR
// and a global aggregate.
var sqlQueries = []string{
	"SELECT cust_id, units FROM sales WHERE units >= 8",
	"SELECT cust_id, SUM(amount) AS revenue FROM sales GROUP BY cust_id ORDER BY revenue DESC LIMIT 10",
	"SELECT prod_category, SUM(units) AS total_units FROM sales JOIN product ON prod_id = prod_id GROUP BY prod_category ORDER BY prod_category",
	"SELECT cust_region, prod_category, SUM(amount) AS revenue FROM sales JOIN customer ON cust_id = cust_id JOIN product ON prod_id = prod_id WHERE prod_brand != 'b0' AND units >= 3 GROUP BY cust_region, prod_category ORDER BY revenue DESC LIMIT 5",
	"SELECT cust_id, SUM(ship_cost) AS cost FROM sales JOIN shipments ON cust_id = cust_id GROUP BY cust_id ORDER BY cost DESC LIMIT 10",
	"SELECT date_quarter, cust_segment, SUM(units) AS total_units FROM sales JOIN dates ON date_id = date_id JOIN customer ON cust_id = cust_id WHERE date_quarter = 'Q1' GROUP BY date_quarter, cust_segment ORDER BY cust_segment",
	"SELECT prod_id, units, amount FROM sales WHERE units >= 8 OR amount < 100.0 ORDER BY amount DESC LIMIT 20",
	"SELECT COUNT(*) AS n, SUM(amount) AS revenue, MIN(units) AS min_units, MAX(units) AS max_units FROM sales WHERE cust_id >= 10",
}

// sqlTable is one generated base table, column-typed by the first row:
// int64, float64 or string.
type sqlTable struct {
	name string
	cols []string
	rows [][]any
}

// genStar builds the five tables. Money is a multiple of 0.25 of bounded
// size, so float sums are exact in any order and the reference comparison
// can be bit-exact.
func genStar(seed uint64, sz sqlSizes) []sqlTable {
	r := prng{s: roundSeed(seed, "sql_star", 0)}
	regions := []string{"amer", "emea", "apac", "latam"}
	segments := []string{"consumer", "corporate", "home_office"}
	categories := []string{"tools", "toys", "food", "books", "garden"}
	brands := []string{"b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7"}
	carriers := []string{"air", "ground", "sea"}

	customer := sqlTable{name: "customer", cols: []string{"cust_id", "cust_region", "cust_segment"}}
	for i := 0; i < sz.customer; i++ {
		customer.rows = append(customer.rows, []any{int64(i), regions[r.intn(len(regions))], segments[r.intn(len(segments))]})
	}
	product := sqlTable{name: "product", cols: []string{"prod_id", "prod_category", "prod_brand"}}
	for i := 0; i < sz.product; i++ {
		product.rows = append(product.rows, []any{int64(i), categories[r.intn(len(categories))], brands[r.intn(len(brands))]})
	}
	dates := sqlTable{name: "dates", cols: []string{"date_id", "date_month", "date_quarter"}}
	quarters := []string{"Q1", "Q2", "Q3", "Q4"}
	for i := 0; i < sz.dates; i++ {
		month := int64(i % 12)
		dates.rows = append(dates.rows, []any{int64(i), month, quarters[month/3]})
	}
	sales := sqlTable{name: "sales", cols: []string{"cust_id", "prod_id", "date_id", "units", "amount"}}
	for i := 0; i < sz.sales; i++ {
		sales.rows = append(sales.rows, []any{
			int64(r.intn(sz.customer)), int64(r.intn(sz.product)), int64(r.intn(sz.dates)),
			int64(1 + r.intn(10)), float64(r.intn(40000)) * 0.25,
		})
	}
	shipments := sqlTable{name: "shipments", cols: []string{"cust_id", "carrier", "ship_cost"}}
	for i := 0; i < sz.shipments; i++ {
		shipments.rows = append(shipments.rows, []any{
			int64(r.intn(sz.customer)), carriers[r.intn(len(carriers))], float64(r.intn(4000)) * 0.25,
		})
	}
	return []sqlTable{customer, product, dates, sales, shipments}
}

// ---- stream_window ---------------------------------------------------------

const (
	streamKeys     = 256
	streamStepNs   = int64(1_000_000) // 1 ms of event time per event
	streamJitterNs = int64(4_000_000) // up to 4 ms of disorder
	streamWindowNs = int64(2_000_000_000)
)

// streamEventAt is event i of the stream: a pure function of (seed, i), so
// a replay or the sequential reference sees exactly what the run saw.
func streamEventAt(seed uint64, i int64) (key int, value float64, eventTimeNs int64) {
	z := mix64(seed + uint64(i)*golden)
	key = int(z % streamKeys)
	value = float64(1 + (z>>8)%100)
	eventTimeNs = i*streamStepNs + int64((z>>20)%uint64(streamJitterNs+1))
	return
}

// ---- kv_mix / kv_txn -------------------------------------------------------

const (
	kvPoolSize = 1024
	opGet      = 0
	opPut      = 1
)

// kvOp is one operation, stored compactly: kind, key index, index into the
// value pool.
type kvOp struct {
	kind uint8
	val  uint16
	key  uint32
}

// genValuePool builds the pool of distinct values ops write.
func genValuePool(seed uint64, size int) [][]byte {
	r := prng{s: roundSeed(seed, "kv_pool", 0)}
	pool := make([][]byte, kvPoolSize)
	for i := range pool {
		v := make([]byte, size)
		for o := 0; o+8 <= size; o += 8 {
			binary.LittleEndian.PutUint64(v[o:], r.next())
		}
		binary.LittleEndian.PutUint16(v, uint16(i)) // distinct by construction
		pool[i] = v
	}
	return pool
}

// genKVRound fills ops with one round of the zipf get/put mix.
func genKVRound(ops []kvOp, seed uint64, round int, z *zipf, readFrac float64) {
	r := prng{s: roundSeed(seed, "kv_ops", round)}
	for i := range ops {
		kind := uint8(opPut)
		if r.float() < readFrac {
			kind = opGet
		}
		ops[i] = kvOp{kind: kind, key: uint32(z.sample(&r)), val: uint16(r.intn(kvPoolSize))}
	}
}

// txnIter is one kv_txn iteration: a 2-key transaction (read both, write
// both), then one put and one get.
type txnIter struct {
	k1, k2, putKey, getKey uint32
	v1, v2, putVal         uint16
}

func genTxnRound(its []txnIter, seed uint64, round int, z *zipf) {
	r := prng{s: roundSeed(seed, "kv_txn", round)}
	for i := range its {
		k1 := z.sample(&r)
		k2 := z.sample(&r)
		for k2 == k1 {
			k2 = (k2 + 1) % len(z.perm)
		}
		its[i] = txnIter{
			k1: uint32(k1), k2: uint32(k2), putKey: uint32(z.sample(&r)), getKey: uint32(z.sample(&r)),
			v1: uint16(r.intn(kvPoolSize)), v2: uint16(r.intn(kvPoolSize)), putVal: uint16(r.intn(kvPoolSize)),
		}
	}
}
