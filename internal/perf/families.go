// The families. Each runs a fixed-size, fixed-seed workload against the
// simulated cluster and reduces it to a Result: Shape (counts, checksums),
// Metrics (the cost model's numbers) and, where the run's clock is the
// simulator's, a per-window trajectory. Families:
//
//	shuffle  — ShuffleBench-style matching records: generate records,
//	           select the ~1/16 that match a rule, key by rule, count
//	           per rule through a full shuffle, round after round.
//	stream   — the checkpointed stream engine run to exhaustion over a
//	           replayable generator source: results and committed
//	           checkpoint bytes.
//	kv       — YCSB-ish zipf read/write mix against the quorum KV store,
//	           then an open-loop overload segment through the admission
//	           stack, then 2PC transactions across a split and a merge.
//	           Latencies are fully simulated, so the trajectory is
//	           windowed by accumulated virtual time.
//	terasort — rounds of TeraGen + sampled range-partitioned sort.
//	query    — the E-SQL star-schema suite through the cost-based
//	           planner: outputs checksummed and the columnar pushdown
//	           counters pinned.
//	avail    — the E-GRAY gray-failure sweep as a trajectory: asymmetric
//	           fault schedules against control and hardened Raft
//	           clusters, one commit-confirmed probe per virtual tick.
package perf

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	hpbdc "repro"
	"repro/internal/admission"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/query"
	"repro/internal/stream"
	qtable "repro/internal/table"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Options configures a family run.
type Options struct {
	// Seed drives all workload randomness. Default 42, the seed of the
	// committed files.
	Seed uint64
}

// families is the one table of what can run, in canonical order. A run
// function fills in the Result that Run hands it.
var families = []struct {
	name string
	run  func(r *Result, seed uint64) error
}{
	{"shuffle", runShuffle},
	{"stream", runStream},
	{"kv", runKV},
	{"terasort", runTerasort},
	{"query", runQuery},
	{"avail", runAvail},
}

// Families lists the runnable family names in canonical order.
func Families() []string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.name
	}
	return names
}

// Every family runs the RDMA fabric model on a 2-rack, 8-node topology.
const transport = "rdma"

var fabricModel = netsim.RDMA40G

// Run executes one named family and returns its result.
func Run(family string, o Options) (*Result, error) {
	if o.Seed == 0 {
		o.Seed = 42
	}
	for _, f := range families {
		if f.name != family {
			continue
		}
		r := &Result{
			Schema:  SchemaVersion,
			Family:  family,
			Params:  map[string]string{"seed": fmt.Sprint(o.Seed), "transport": transport},
			Shape:   map[string]int64{},
			Metrics: map[string]float64{},
		}
		if err := f.run(r, o.Seed); err != nil {
			return nil, fmt.Errorf("perf: %s: %w", family, err)
		}
		return r, nil
	}
	return nil, fmt.Errorf("perf: unknown family %q (have %v)", family, Families())
}

// setParams records the workload's sizes in their printed form.
func (r *Result) setParams(params map[string]any) {
	for k, v := range params {
		r.Params[k] = fmt.Sprint(v)
	}
}

// addWindows appends a WindowedHistogram series, shifted by offset.
func (r *Result) addWindows(samples []metrics.WindowSample, offset time.Duration) {
	for _, s := range samples {
		r.Windows = append(r.Windows, Window{
			StartNs: int64(s.Start + offset),
			Count:   s.Count,
			PerSec:  s.PerSec,
			MeanNs:  s.Mean,
			P50Ns:   s.P50,
			P95Ns:   s.P95,
			P99Ns:   s.P99,
			P999Ns:  s.P999,
			MaxNs:   s.Max,
		})
	}
}

// checksum folds a hash into a shape field (>>1: stay positive in JSON).
func checksum(h hash.Hash64) int64 { return int64(h.Sum64() >> 1) }

// batchRounds runs body once per round, each on a fresh context seeded
// seed+round, counts the rounds as the family's windows and reports the
// last round's mean simulated shuffle-fetch time — a pure function of
// (topology, model, placement), read from the context registry.
func batchRounds(r *Result, seed uint64, rounds int, body func(round int, ctx *hpbdc.Context) error) error {
	var ctx *hpbdc.Context
	for round := 0; round < rounds; round++ {
		ctx = hpbdc.New(hpbdc.Config{
			Racks: 2, NodesPerRack: 4,
			Transport: transport,
			Seed:      seed + uint64(round),
		})
		if err := body(round, ctx); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
	}
	r.Shape["windows"] = int64(rounds)
	reg := ctx.Metrics()
	if q := reg.Counter("net_cost_queries").Value(); q > 0 {
		r.Metrics["sim_fetch_mean_ns"] = float64(reg.Counter("net_cost_time_ns").Value()) / float64(q)
	}
	return nil
}

// ---- kv --------------------------------------------------------------------

// The kv family's sizes. Windows advance by accumulated virtual time, at
// a width that gives each segment a useful handful of them.
const (
	kvOps       = 5_000
	kvKeys      = 512
	kvSkew      = 0.99
	kvReadFrac  = 0.8
	kvValueSize = 128
	kvWindow    = 2 * time.Millisecond
	kvOverload  = 200 * time.Millisecond
	kvTxns      = 200
)

// runKV replays a zipf-skewed read/write mix against the quorum store.
// Every operation's latency is computed by the fabric cost model, so
// the whole trajectory — windows included — is a pure function of the
// seed: windows advance by accumulated virtual time, not wall clock.
func runKV(r *Result, seed uint64) error {
	top := topology.TwoTier(2, 4, 2)
	store, err := kvstore.New(kvstore.Config{Fabric: netsim.NewFabric(top, fabricModel), N: 3, R: 2, W: 2})
	if err != nil {
		return err
	}
	ops := workload.KVOps(kvOps, kvKeys, kvSkew, kvReadFrac, kvValueSize, seed)

	reads := metrics.NewWindowedHistogram(kvWindow)
	writes := metrics.NewWindowedHistogram(kvWindow)
	all := metrics.NewWindowedHistogram(kvWindow)

	var virtual time.Duration
	var nGet, nPut, hits, misses int64
	sum := fnv.New64a()
	nodes := top.Size()
	for i, op := range ops {
		coord := topology.NodeID(i % nodes)
		switch op.Kind {
		case workload.OpPut:
			lat, err := store.Put(coord, op.Key, op.Value)
			if err != nil {
				return fmt.Errorf("put: %w", err)
			}
			virtual += lat
			writes.ObserveDuration(virtual, lat)
			all.ObserveDuration(virtual, lat)
			nPut++
		case workload.OpGet:
			v, lat, err := store.Get(coord, op.Key)
			switch {
			case err == nil:
				hits++
				sum.Write([]byte(op.Key))
				sum.Write(v)
			case err == kvstore.ErrNotFound:
				misses++
			default:
				return fmt.Errorf("get: %w", err)
			}
			virtual += lat
			reads.ObserveDuration(virtual, lat)
			all.ObserveDuration(virtual, lat)
			nGet++
		}
	}

	r.setParams(map[string]any{
		"ops":           kvOps,
		"keys":          kvKeys,
		"skew":          kvSkew,
		"read_frac":     kvReadFrac,
		"value_size":    kvValueSize,
		"window_ms":     kvWindow.Milliseconds(),
		"quorum":        "n3r2w2",
		"overload_mult": 2,
		"overload_ms":   kvOverload.Milliseconds(),
		"txn_ops":       kvTxns,
		"txn_span":      2,
	})
	r.addWindows(all.Series(), 0)
	r.Shape["ops"] = kvOps
	r.Shape["reads"] = nGet
	r.Shape["writes"] = nPut
	r.Shape["hits"] = hits
	r.Shape["misses"] = misses
	r.Shape["read_checksum"] = checksum(sum)
	rt, wt := reads.Total(), writes.Total()
	r.Metrics["get_p50_ns"] = float64(rt.P50)
	r.Metrics["get_p99_ns"] = float64(rt.P99)
	r.Metrics["get_p999_ns"] = float64(rt.P999)
	r.Metrics["put_p50_ns"] = float64(wt.P50)
	r.Metrics["put_p99_ns"] = float64(wt.P99)
	r.Metrics["put_p999_ns"] = float64(wt.P999)
	r.Metrics["virtual_elapsed_ns"] = float64(virtual)
	r.Metrics["ops_per_sec"] = kvOps / virtual.Seconds()

	// Overload segment: drive the same store build at 2x its measured
	// closed-loop capacity through the admission stack, open-loop. The
	// whole segment is virtual time, so goodput-at-saturation and the
	// admitted tail are seed-deterministic; its windows are appended
	// after the mix's, offset by the mix's virtual elapsed time.
	mean := virtual / kvOps
	capacity := float64(time.Second) / float64(mean)
	ovlStore, err := kvstore.New(kvstore.Config{Fabric: netsim.NewFabric(top, fabricModel), N: 3, R: 2, W: 2})
	if err != nil {
		return err
	}
	ovl := admission.NewSim(experiments.OverloadConfig(ovlStore, nodes, 2*capacity, capacity, mean, kvOverload, seed)).Run()
	r.addWindows(ovl.Windows, virtual)
	r.Shape["overload_offered"] = ovl.Offered
	r.Shape["overload_goodput"] = ovl.Goodput
	r.Shape["overload_shed"] = ovl.ShedQuota + ovl.ShedQueue + ovl.ShedSojourn
	r.Shape["overload_checksum"] = int64(ovl.Checksum >> 1)
	r.Metrics["overload_goodput_per_sec"] = ovl.GoodputPerSec
	r.Metrics["overload_admitted_p999_ns"] = float64(ovl.AdmittedLatency.P999)

	// Transactional segment: the same zipf key pressure as multi-key 2PC
	// against the range-sharded plane, with a mid-run split and merge so
	// the trajectory crosses topology changes. The plane's virtual cost
	// model is the clock, so windows, counters and the read checksum are
	// all seed-deterministic; windows append after the overload segment's.
	sh := kvstore.NewSharded(kvstore.ShardedConfig{
		Seed: seed, Groups: 2, InitialSplits: []string{"key-00000040"},
		MaxOpAttempts: 16, MaxTxnAttempts: 8,
	})
	txns := workload.TxnOps(workload.TxnSpec{
		N: kvTxns, Keys: 128, Span: 2, Skew: kvSkew, ValueSize: 32, Seed: seed,
	})
	txnWindows := metrics.NewWindowedHistogram(kvWindow)
	txnSum := fnv.New64a()
	prevCost := sh.VirtualCost()
	ctx := context.Background()
	for i, tx := range txns {
		got, err := sh.Txn(ctx, tx.Reads, tx.Writes)
		cost := sh.VirtualCost()
		lat := cost - prevCost
		prevCost = cost
		if err != nil {
			if errors.Is(err, kvstore.ErrTxnConflict) || errors.Is(err, kvstore.ErrTxnAborted) {
				continue // clean aborts are part of the measured mix
			}
			return fmt.Errorf("txn %d: %w", i, err)
		}
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			txnSum.Write([]byte(k))
			txnSum.Write(got[k])
		}
		txnWindows.ObserveDuration(cost, lat)
		switch i {
		case kvTxns / 3:
			if err := sh.Split("key-00000020"); err != nil && !errors.Is(err, kvstore.ErrRangeBusy) {
				return fmt.Errorf("txn split: %w", err)
			}
		case 2 * kvTxns / 3:
			if err := sh.Merge("key-00000020"); err != nil && !errors.Is(err, kvstore.ErrRangeBusy) {
				return fmt.Errorf("txn merge: %w", err)
			}
		}
	}
	r.addWindows(txnWindows.Series(), virtual+kvOverload)
	r.Shape["txn_committed"] = sh.Reg.Counter("txn_committed").Value()
	r.Shape["txn_conflicts"] = sh.Reg.Counter("txn_conflicts").Value()
	r.Shape["txn_checksum"] = checksum(txnSum)
	r.Shape["txn_ranges"] = int64(sh.RangeCount())
	r.Shape["windows"] = int64(len(r.Windows))
	txnTotal := txnWindows.Total()
	r.Metrics["txn_p50_ns"] = float64(txnTotal.P50)
	r.Metrics["txn_p99_ns"] = float64(txnTotal.P99)
	r.Metrics["txn_virtual_elapsed_ns"] = float64(sh.VirtualCost())
	return nil
}

// ---- shuffle ---------------------------------------------------------------

// runShuffle is the matching-records workload: each round generates
// seeded records across source partitions, keeps the ~1/16 that match,
// keys the matches by rule id and counts per rule through a full
// shuffle. The checksum folds every round's sorted (rule, count) pairs,
// so any change in what got shuffled moves it.
func runShuffle(r *Result, seed uint64) error {
	const (
		rounds      = 3
		records     = 16_000
		parts       = 8
		reduceParts = 4
		rules       = 64
		perPart     = records / parts
	)
	var totalMatched, totalGroups int64
	sum := fnv.New64a()
	err := batchRounds(r, seed, rounds, func(round int, ctx *hpbdc.Context) error {
		roundSeed := seed + uint64(round)*1_000_003
		src := hpbdc.SourceFunc(ctx, parts, func(part int) []uint64 {
			out := make([]uint64, perPart)
			// SplitMix-style stream decorrelated per (round, partition).
			x := roundSeed + uint64(part)*0x9e3779b97f4a7c15
			for i := range out {
				x += 0x9e3779b97f4a7c15
				z := x
				z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
				z = (z ^ (z >> 27)) * 0x94d049bb133111eb
				out[i] = z ^ (z >> 31)
			}
			return out
		})
		matched := hpbdc.FlatMap(src, func(rec uint64) []hpbdc.Pair[int64, int64] {
			if rec%16 != 0 { // the matching rule: ~1/16 selectivity
				return nil
			}
			return []hpbdc.Pair[int64, int64]{{Key: int64(rec % rules), Value: 1}}
		})
		counts := hpbdc.ReduceByKey(matched, hpbdc.Int64Codec, hpbdc.Int64Codec, reduceParts,
			func(a, b int64) int64 { return a + b })
		got, err := counts.Collect()
		if err != nil {
			return err
		}
		sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
		for _, p := range got {
			totalMatched += p.Value
			fmt.Fprintf(sum, "%d=%d;", p.Key, p.Value)
		}
		totalGroups += int64(len(got))
		return nil
	})
	if err != nil {
		return err
	}
	r.setParams(map[string]any{
		"rounds":       rounds,
		"records":      records,
		"parts":        parts,
		"reduce_parts": reduceParts,
		"rules":        rules,
		"selectivity":  "1/16",
	})
	r.Shape["records"] = rounds * perPart * parts
	r.Shape["matched"] = totalMatched
	r.Shape["groups"] = totalGroups
	r.Shape["match_checksum"] = checksum(sum)
	return nil
}

// ---- stream ----------------------------------------------------------------

// runStream drives the checkpointed stream engine to source exhaustion.
// The Runner's tick hook counts event blocks; the result set, its
// checksum and the committed checkpoint bytes are the shape.
func runStream(r *Result, seed uint64) error {
	const (
		events          = 20_000
		checkpointEvery = 2_000
		keys            = 64
		workers         = 4
	)
	src := stream.NewGeneratorSource(seed, events, keys, time.Millisecond, 4*time.Millisecond)
	var blocks int64
	runner := stream.NewRunner(stream.RunConfig{
		Pipeline: stream.Config{
			Workers: workers,
			Buffer:  256,
			Window:  50 * time.Millisecond,
		},
		CheckpointEvery: checkpointEvery,
		WatermarkEvery:  256,
		WatermarkLag:    5 * time.Millisecond,
		TickEvery:       events / 12,
		Tick:            func() { blocks++ },
	}, src)

	results, err := runner.Run()
	if err != nil {
		return err
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].WindowStart != results[j].WindowStart {
			return results[i].WindowStart < results[j].WindowStart
		}
		return results[i].Key < results[j].Key
	})
	sum := fnv.New64a()
	for _, res := range results {
		fmt.Fprintf(sum, "%d|%s|%.6f|%d;", res.WindowStart, res.Key, res.Sum, res.Count)
	}

	reg := runner.Metrics()
	r.setParams(map[string]any{
		"events":           events,
		"keys":             keys,
		"workers":          workers,
		"checkpoint_every": checkpointEvery,
		"window_ms":        50,
	})
	r.Shape["events"] = events
	r.Shape["results"] = int64(len(results))
	r.Shape["results_checksum"] = checksum(sum)
	r.Shape["checkpoints_committed"] = reg.Counter("checkpoints_committed").Value()
	r.Shape["checkpoint_bytes"] = reg.Counter("checkpoint_bytes").Value()
	r.Shape["windows"] = blocks
	return nil
}

// ---- terasort --------------------------------------------------------------

// runTerasort runs rounds of TeraGen + sampled range-partitioned sort.
// The checksum folds the first and last key of every output partition
// — enough to pin both the partition boundaries and the sort order.
func runTerasort(r *Result, seed uint64) error {
	const (
		rounds  = 2
		records = 24_000
		parts   = 8
	)
	var totalRecords int64
	sum := fnv.New64a()
	err := batchRounds(r, seed, rounds, func(round int, ctx *hpbdc.Context) error {
		roundSeed := seed + uint64(round)*7_919
		gen := hpbdc.SourceFunc(ctx, parts, func(part int) []hpbdc.Pair[string, string] {
			recs := workload.TeraGen(records/parts, roundSeed+uint64(part))
			out := make([]hpbdc.Pair[string, string], len(recs))
			for i, rec := range recs {
				out[i] = hpbdc.Pair[string, string]{Key: string(rec.Key), Value: string(rec.Value)}
			}
			return out
		})
		sorted, err := hpbdc.SortByKey(gen, hpbdc.StringCodec, hpbdc.StringCodec, parts, 128)
		if err != nil {
			return err
		}
		out, err := sorted.CollectPartitions()
		if err != nil {
			return err
		}
		prev := ""
		for _, part := range out {
			if len(part) > 0 {
				fmt.Fprintf(sum, "%x|%x;", part[0].Key, part[len(part)-1].Key)
			}
			for _, p := range part {
				if p.Key < prev {
					return errors.New("output not sorted")
				}
				prev = p.Key
				totalRecords++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.setParams(map[string]any{"rounds": rounds, "records": records, "parts": parts})
	r.Shape["records"] = totalRecords
	r.Shape["order_checksum"] = checksum(sum)
	return nil
}

// ---- query -----------------------------------------------------------------

// runQuery executes the E-SQL star-schema suite through the cost-based
// planner, each round on a fresh engine and regenerated star data. The
// result rows fold into a checksum — any planner change that alters a
// relational answer moves it, without the oracle in the loop — and the
// columnar scan counters (rows pruned, bytes decoded/skipped) pin
// pushdown behavior: encoding and plans are pure functions of the
// generated data.
func runQuery(r *Result, seed uint64) error {
	const (
		rounds        = 2
		factRows      = 2_000
		parts         = 4
		broadcastRows = factRows / 4
	)
	custN, prodN, dateN := 120, 40, 48
	scanCounters := []struct{ shape, counter string }{
		{"rows_scanned", qtable.CtrRowsScanned},
		{"rows_pruned", qtable.CtrRowsPruned},
		{"bytes_decoded", qtable.CtrBytesDecoded},
		{"bytes_skipped", qtable.CtrBytesSkipped},
	}

	var totalRows int64
	sum := fnv.New64a()
	suite := query.StarQueries()
	for round := 0; round < rounds; round++ {
		fab := netsim.NewFabric(topology.TwoTier(2, 4, 2), fabricModel)
		cl := cluster.New(cluster.Config{Fabric: fab, SlotsPerNode: 2})
		eng := core.NewEngine(core.Config{Cluster: cl, Seed: seed})
		env := query.NewEnv(eng, nil)
		rels := query.GenStar(seed+uint64(round)*1_000_003, factRows, custN, prodN, dateN)
		if err := query.RegisterStar(env, rels, parts); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		for _, q := range suite {
			plan, err := env.SQL(q.SQL, query.Options{Optimize: true, Parts: parts, BroadcastRows: broadcastRows})
			if err != nil {
				return fmt.Errorf("%s: %w", q.ID, err)
			}
			rows, err := plan.Execute()
			if err != nil {
				return fmt.Errorf("%s: %w", q.ID, err)
			}
			totalRows += int64(len(rows))
			// Ordered plans have one valid order; unordered ones are
			// multisets — sort the encoded rows so the fold is stable.
			enc := make([]string, len(rows))
			for i, row := range rows {
				enc[i] = check.FormatRow(row)
			}
			if !plan.Ordered() {
				sort.Strings(enc)
			}
			fmt.Fprintf(sum, "%s:", q.ID)
			for _, e := range enc {
				fmt.Fprintf(sum, "%s;", e)
			}
		}
		for _, c := range scanCounters {
			r.Shape[c.shape] += eng.Reg.Counter(c.counter).Value()
		}
	}

	r.setParams(map[string]any{
		"rounds":         rounds,
		"fact_rows":      factRows,
		"parts":          parts,
		"queries":        len(suite),
		"broadcast_rows": broadcastRows,
	})
	r.Shape["queries"] = int64(rounds * len(suite))
	r.Shape["result_rows"] = totalRows
	r.Shape["result_checksum"] = checksum(sum)
	r.Shape["windows"] = rounds
	return nil
}

// ---- avail -----------------------------------------------------------------

// runAvail replays E-GRAY's runs (experiments.GrayRun) as a trajectory:
// three asymmetric fault schedules (one-way inbound isolation, a
// non-transitive partial partition, link flapping) against a 5-node Raft
// cluster, control (vanilla) vs defended (PreVote + CheckQuorum +
// randomized backoff). One commit-confirmed proposal probes every
// virtual tick; check.Availability charges only failures that coincide
// with a connected majority. The unavailability windows, term growth and
// step-down counts are all pure functions of the seed — a liveness
// regression (say, a PreVote bug reintroducing term inflation) moves the
// committed file the same way a lost record moves the shuffle checksum.
func runAvail(r *Result, seed uint64) error {
	// One virtual tick is modeled as 1ms for window bookkeeping.
	const tickNs = int64(time.Millisecond)

	r.setParams(map[string]any{"nodes": experiments.GrayNodes, "horizon": experiments.GrayHorizon})
	var offset, totalProbes, totalFailed int64
	for _, gs := range experiments.GraySchedules() {
		for _, mode := range []string{"control", "defended"} {
			run := experiments.GrayRun(mode == "defended", gs.Sched, seed)
			rep := run.Avail
			totalProbes += int64(rep.Probes)
			totalFailed += int64(rep.Failed)

			key := strings.ReplaceAll(gs.Name, "-", "_") + "_" + mode
			r.Shape[key+"_failed"] = int64(rep.Failed)
			r.Shape[key+"_windows"] = int64(rep.Windows)
			r.Shape[key+"_longest"] = rep.Longest
			r.Shape[key+"_unavail"] = rep.Total
			r.Shape[key+"_term_delta"] = int64(run.TermDelta)
			r.Shape[key+"_stepdowns"] = int64(run.StepDowns)

			meanRounds := int64(0)
			if run.Committed > 0 {
				meanRounds = run.Rounds / run.Committed
			}
			r.Windows = append(r.Windows, Window{
				StartNs: offset,
				Count:   int64(rep.Probes),
				PerSec:  float64(run.Committed) / (float64(experiments.GrayHorizon*tickNs) / float64(time.Second)),
				MeanNs:  float64(meanRounds),
			})
			offset += experiments.GrayHorizon * tickNs
		}
	}
	r.Shape["probes"] = totalProbes
	r.Shape["failed"] = totalFailed
	r.Shape["windows"] = int64(len(r.Windows))
	return nil
}
