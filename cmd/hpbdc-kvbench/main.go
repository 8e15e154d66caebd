// Command hpbdc-kvbench drives the Dynamo-style KV store with a skewed
// operation mix and prints throughput, latency and consistency-machinery
// activity.
//
//	hpbdc-kvbench -ops 500000 -r 2 -w 2 -skew 0.99 -transport tcp
//	hpbdc-kvbench -txn -ops 2000 -check        # sharded 2PC mix + strict serializability
//	hpbdc-kvbench -txn -txn-chaos -check       # same, under the "txn" chaos preset
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	ops := flag.Int("ops", 0, "operations to run (0: 200000, or 2000 with -txn)")
	keys := flag.Int("keys", 100_000, "distinct keys")
	n := flag.Int("n", 3, "replication factor")
	r := flag.Int("r", 2, "read quorum")
	w := flag.Int("w", 2, "write quorum")
	skew := flag.Float64("skew", 0.99, "Zipf exponent (0 = uniform)")
	readFrac := flag.Float64("reads", 0.9, "fraction of reads")
	valueSize := flag.Int("value", 128, "value size in bytes")
	transport := flag.String("transport", "tcp", "network model: rdma, tcp, ipoib")
	nodes := flag.Int("nodes", 8, "cluster size")
	deadline := flag.Duration("deadline", 0,
		"per-op virtual budget: run the mix through GetCtx/PutCtx with this deadline; overruns count as timeouts instead of results")
	admissionMult := flag.Float64("admission", 0,
		"after the mix, drive an open-loop overload run at this multiple of the measured capacity through the admission stack and print goodput/shed")
	checkFlag := flag.Bool("check", false,
		"after the benchmark, capture a concurrent client history and verify linearizability; exit nonzero on violation")
	stale := flag.Bool("stale", false,
		"enable the stale-read fault injection (with -check, demonstrates the checker catching the violation)")
	seed := flag.Uint64("seed", 42, "workload seed (with -txn)")
	txnMode := flag.Bool("txn", false,
		"drive the range-sharded transactional plane instead of the quorum store: multi-key 2PC mix "+
			"with a mid-run split and merge; -check verifies strict serializability, -stale injects dirty reads")
	txnSpan := flag.Int("txn-span", 2, "distinct keys touched per transaction (with -txn)")
	txnGroups := flag.Int("txn-groups", 2, "raft replication groups backing the ranges (with -txn)")
	txnChaos := flag.Bool("txn-chaos", false,
		"replay the \"txn\" chaos preset (coordinator crashes bracketing the commit point) during the run (with -txn)")
	gray := flag.Bool("gray", false,
		"inject gray one-way link faults mid-run (with -txn): every group's leader is inbound-isolated "+
			"for a quarter of the mix then healed; prints per-group term growth and CheckQuorum step-downs")
	flag.Parse()

	if *txnMode {
		if *ops == 0 {
			*ops = 2000 // 2PC through the raft sim is heavier than a quorum op
		}
		runTxn(*ops, *keys, *skew, *valueSize, *txnSpan, *txnGroups, *seed, *txnChaos, *gray, *checkFlag, *stale)
		return
	}
	if *gray {
		fmt.Fprintln(os.Stderr, "-gray requires -txn (gray faults target the raft-backed sharded plane)")
		os.Exit(2)
	}

	if *ops == 0 {
		*ops = 200_000
	}

	runClassic(ops, keys, n, r, w, skew, readFrac, valueSize, transport, nodes, checkFlag, stale,
		*deadline, *admissionMult)
}

// runTxn drives the range-sharded transactional plane: a read-modify-write
// 2PC mix from workload.TxnOps with a split and a merge mid-run, optionally
// under the "txn" chaos preset and/or a gray one-way fault episode,
// finishing with orphan recovery and the zero-locks / zero-records
// invariants. With -check it additionally captures a concurrent
// multi-client history and verdicts strict serializability.
func runTxn(ops, keys int, skew float64, valueSize, span, groups int, seed uint64,
	withChaos, gray, checkFlag, dirty bool) {
	s := kvstore.NewSharded(kvstore.ShardedConfig{
		Seed: seed, Groups: groups,
		InitialSplits: []string{fmt.Sprintf("key-%08d", keys/2)},
		MaxOpAttempts: 16, MaxTxnAttempts: 8,
	})

	var ctl *chaos.Controller
	if withChaos {
		sched, err := chaos.Preset("txn", groups)
		if err != nil {
			log.Fatal(err)
		}
		ctl = chaos.New(sched, seed, chaos.Targets{Nodes: groups, Txn: s}, s.Reg)
	}

	grayBase := make([]uint64, groups)
	if gray {
		for g := 0; g < groups; g++ {
			grayBase[g] = s.GroupMaxTerm(g)
		}
	}

	trace := workload.TxnOps(workload.TxnSpec{
		N: ops, Keys: keys, Span: span, Skew: skew, ValueSize: valueSize, Seed: seed,
	})
	ctx := context.Background()
	conflicts, orphaned := 0, 0
	tickEvery := ops / 12
	if tickEvery < 1 {
		tickEvery = 1
	}
	for i, tx := range trace {
		if ctl != nil && i%tickEvery == 0 {
			ctl.Tick()
		}
		if gray {
			switch i {
			case ops / 4: // inbound-isolate every leader: one-way gray cut
				for g := 0; g < groups; g++ {
					lead := s.GroupLeader(g)
					for m := 0; m < s.GroupMembers(g); m++ {
						if m != lead && lead >= 0 {
							s.CutGroupLink(g, m, lead)
						}
					}
				}
			case ops / 2:
				for g := 0; g < groups; g++ {
					for from := 0; from < s.GroupMembers(g); from++ {
						for to := 0; to < s.GroupMembers(g); to++ {
							if from != to {
								s.HealGroupLink(g, from, to)
							}
						}
					}
				}
			}
		}
		switch i {
		case ops / 3:
			if err := s.Split(fmt.Sprintf("key-%08d", keys/4)); err != nil && err != kvstore.ErrRangeBusy {
				log.Fatalf("split: %v", err)
			}
		case 2 * ops / 3:
			if err := s.Merge(fmt.Sprintf("key-%08d", keys/4)); err != nil && err != kvstore.ErrRangeBusy {
				log.Fatalf("merge: %v", err)
			}
		}
		switch _, err := s.Txn(ctx, tx.Reads, tx.Writes); {
		case err == nil:
		case errors.Is(err, kvstore.ErrTxnConflict),
			errors.Is(err, kvstore.ErrTxnAborted),
			errors.Is(err, kvstore.ErrKeyLocked),
			errors.Is(err, kvstore.ErrDeadlineExceeded):
			conflicts++
		case errors.Is(err, kvstore.ErrTxnOrphaned):
			orphaned++ // ambiguous: resolved below by recovery, never dangling
		default:
			log.Fatalf("txn %d: %v", i, err)
		}
	}
	for ctl != nil && !ctl.Done() {
		ctl.Tick()
	}
	if err := s.Recover(); err != nil {
		log.Fatalf("recover: %v", err)
	}
	locks, err := s.LockCount()
	if err != nil {
		log.Fatal(err)
	}
	pending, err := s.PendingTxnRecords()
	if err != nil {
		log.Fatal(err)
	}

	virtual := s.VirtualCost()
	committed := s.Reg.Counter("txn_committed").Value()
	recovered := s.Reg.Counter("txn_recovered_aborted").Value() +
		s.Reg.Counter("txn_recovered_resumed").Value()
	fmt.Printf("%d txns (span %d) over %d ranges x %d groups in %v virtual: %.0f txn/s\n",
		ops, span, s.RangeCount(), groups, virtual.Round(time.Millisecond),
		float64(ops)/virtual.Seconds())
	fmt.Printf("committed %d, clean aborts %d, ambiguous %d (recovery resolved %d)\n",
		committed, conflicts, orphaned, recovered)
	fmt.Printf("after recovery: %d locks, %d pending txn records\n", locks, pending)
	if locks != 0 || pending != 0 {
		fmt.Println("INVARIANT VIOLATION: locks/records left dangling")
		os.Exit(1)
	}
	if gray {
		for g := 0; g < groups; g++ {
			fmt.Printf("gray group %d: term +%d, step-downs %d\n",
				g, s.GroupMaxTerm(g)-grayBase[g], s.GroupStepDowns(g))
		}
	}

	if checkFlag {
		if dirty {
			s.SetDirtyReads(true)
			fmt.Println("dirty-read fault injection ENABLED — the check below should fail")
		}
		ops := check.CaptureTxnHistory(s, check.TxnCaptureConfig{
			Clients: 4, Waves: 20, Keys: 8, TxnKeys: span,
			ReadFraction: 0.3, TxnFraction: 0.4, Seed: seed,
			NoEffect: func(err error) bool {
				return errors.Is(err, kvstore.ErrTxnConflict) ||
					errors.Is(err, kvstore.ErrTxnAborted) ||
					errors.Is(err, kvstore.ErrKeyLocked) ||
					errors.Is(err, kvstore.ErrDeadlineExceeded)
			},
		})
		s.SetDirtyReads(false)
		verdict := check.CheckTxns(ops)
		fmt.Printf("strict serializability: %s\n", verdict)
		if !verdict.OK {
			os.Exit(1)
		}
	}
}

func runClassic(ops, keys, n, r, w *int, skew, readFrac *float64, valueSize *int,
	transport *string, nodes *int, checkFlag, stale *bool,
	deadline time.Duration, admissionMult float64) {
	var model netsim.Model
	switch *transport {
	case "rdma":
		model = netsim.RDMA40G
	case "ipoib":
		model = netsim.IPoIB40G
	default:
		model = netsim.TCP40G
	}
	racks := *nodes / 4
	if racks < 1 {
		racks = 1
	}
	fab := netsim.NewFabric(topology.TwoTier(racks, *nodes/racks, 2), model)
	store, err := kvstore.New(kvstore.Config{Fabric: fab, N: *n, R: *r, W: *w})
	if err != nil {
		log.Fatal(err)
	}

	trace := workload.KVOps(*ops, *keys, *skew, *readFrac, *valueSize, 7)
	start := time.Now()
	notFound, timeouts := 0, 0
	for i, op := range trace {
		coord := topology.NodeID(i % *nodes)
		ctx := context.Background()
		if deadline > 0 {
			ctx = admission.WithBudget(ctx, deadline)
		}
		var err error
		switch op.Kind {
		case workload.OpPut:
			if deadline > 0 {
				_, err = store.PutCtx(ctx, coord, op.Key, op.Value)
			} else {
				_, err = store.Put(coord, op.Key, op.Value)
			}
		case workload.OpGet:
			if deadline > 0 {
				_, _, err = store.GetCtx(ctx, coord, op.Key)
			} else {
				_, _, err = store.Get(coord, op.Key)
			}
		}
		switch {
		case err == nil:
		case err == kvstore.ErrNotFound:
			notFound++
		case admission.IsDeadline(err):
			timeouts++
		default:
			log.Fatal(err)
		}
	}
	elapsed := time.Since(start)

	get := store.Reg.Histogram("get_latency_ns").Snapshot()
	put := store.Reg.Histogram("put_latency_ns").Snapshot()
	fmt.Printf("%d ops on %d nodes (N=%d R=%d W=%d, %s, zipf %.2f) in %v: %.0f ops/s\n",
		*ops, *nodes, *n, *r, *w, model.Name, *skew, elapsed.Round(time.Millisecond),
		float64(*ops)/elapsed.Seconds())
	fmt.Printf("get: mean %v p99 %v  (%d misses)\n",
		time.Duration(int64(get.Mean)).Round(time.Microsecond),
		time.Duration(get.P99).Round(time.Microsecond), notFound)
	fmt.Printf("put: mean %v p99 %v\n",
		time.Duration(int64(put.Mean)).Round(time.Microsecond),
		time.Duration(put.P99).Round(time.Microsecond))
	fmt.Printf("read repairs: %d, hinted handoffs: %d\n",
		store.Reg.Counter("read_repairs").Value(),
		store.Reg.Counter("hinted_handoffs").Value())
	if deadline > 0 {
		fmt.Printf("deadline %v: %d timeouts (%.2f%%)\n",
			deadline, timeouts, 100*float64(timeouts)/float64(*ops))
	}

	if admissionMult > 0 {
		runOverload(store, *nodes, admissionMult)
	}

	if *checkFlag {
		if *stale {
			store.SetStaleReads(true)
			fmt.Println("stale-read fault injection ENABLED — the check below should fail")
		}
		h := check.CaptureHistory(store, check.CaptureConfig{
			Clients: 4, Waves: 50, Keys: 8, Nodes: *nodes,
			ReadFraction: 0.4, DeleteFraction: 0.1, Seed: 7,
			IsNotFound: func(err error) bool { return err == kvstore.ErrNotFound },
		})
		verdict := check.Linearizable(h)
		fmt.Printf("linearizability: %s\n", verdict)
		if !verdict.OK {
			os.Exit(1)
		}
	}
}

// runOverload measures the store's closed-loop capacity from the mix it
// just served and then drives an open-loop multi-tenant arrival stream
// at mult x that capacity through the admission stack (WFQ quotas, CoDel
// shedding, retry budgets, deadline propagation) — the E-OVL regime,
// against this CLI's store build.
func runOverload(store *kvstore.Store, nodes int, mult float64) {
	get := store.Reg.Histogram("get_latency_ns").Snapshot()
	put := store.Reg.Histogram("put_latency_ns").Snapshot()
	var mean time.Duration
	if n := get.Count + put.Count; n > 0 {
		mean = time.Duration((get.Sum + put.Sum) / n)
	}
	if mean <= 0 {
		mean = time.Microsecond
	}
	capacity := float64(time.Second) / float64(mean)

	tenants := make([]workload.TenantSpec, 3)
	ids := make([]string, 3)
	weights := make([]float64, 3)
	prios := make([]int, 3)
	for i, m := range []string{"A", "B", "C"} {
		rf, _ := workload.YCSBMix(m)
		tenants[i] = workload.TenantSpec{
			ID: "ycsb-" + m, RatePerSec: mult * capacity / 3,
			Weight: 1, Priority: i, ReadFrac: rf, Keys: 512, Skew: 0.99, ValueSize: 128,
		}
		ids[i], weights[i], prios[i] = tenants[i].ID, 1, i
	}
	quotas := admission.QuotasFor(ids, weights, prios, 0.95*capacity)
	for i := range quotas {
		quotas[i].Burst = quotas[i].Rate * 0.02
	}
	res := admission.NewSim(admission.SimConfig{
		Tenants:     tenants,
		Duration:    time.Second,
		Seed:        7,
		Nodes:       nodes,
		Deadline:    50 * mean,
		MaxAttempts: 3,
		Backoff:     5 * mean,
		RetryRatio:  0.1,
		Admission: &admission.Config{
			Tenants:  quotas,
			Target:   4 * mean,
			Interval: 40 * mean,
			MaxQueue: 256,
		},
		Serve: func(ctx context.Context, op workload.Op, coord topology.NodeID) (time.Duration, error) {
			if op.Kind == workload.OpPut {
				return store.PutCtx(ctx, coord, op.Key, op.Value)
			}
			_, lat, err := store.GetCtx(ctx, coord, op.Key)
			if err == kvstore.ErrNotFound {
				err = nil
			}
			return lat, err
		},
	}).Run()

	fmt.Printf("overload %.1fx capacity (%.0f ops/s, mean %v, deadline %v):\n",
		mult, capacity, mean, 50*mean)
	fmt.Printf("  offered %d, goodput %d (%.0f/s), shed %d (quota %d, queue %d, sojourn %d)\n",
		res.Offered, res.Goodput, res.GoodputPerSec,
		res.ShedQuota+res.ShedQueue+res.ShedSojourn,
		res.ShedQuota, res.ShedQueue, res.ShedSojourn)
	fmt.Printf("  timeouts %d, retries %d (suppressed %d), admitted p99 %v p999 %v\n",
		res.Timeouts, res.Retries, res.RetriesSuppressed,
		time.Duration(res.AdmittedLatency.P99).Round(time.Microsecond),
		time.Duration(res.AdmittedLatency.P999).Round(time.Microsecond))
}
