package experiments

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// E5KVQuorum sweeps quorum configurations and key skew on the Dynamo-style
// store: real ops/sec plus simulated mean and p99 latency, and the
// consistency machinery's activity (read repairs).
func E5KVQuorum(p Params) *Table {
	t := &Table{
		ID:    "E5",
		Title: "KV store: throughput and latency vs (R,W) quorum and skew",
		Note: "N=3 replicas on 8 nodes, 90% reads, 128B values, TCP fabric (network-dominated regime); " +
			"linear is a per-config linearizability verdict over a captured concurrent history",
		Cols: []string{"R", "W", "zipf-s", "ops/s", "get-mean", "get-p99", "put-mean", "repairs", "linear"},
	}
	ops := pick(p.Scale, 5_000, 50_000)
	quorums := [][2]int{{1, 1}, {1, 3}, {2, 2}, {3, 1}}
	for _, rw := range quorums {
		for _, skew := range []float64{0, 0.99} {
			fab := netsim.NewFabric(topology.TwoTier(2, 4, 2), netsim.TCP40G)
			store, err := kvstore.New(kvstore.Config{Fabric: fab, N: 3, R: rw[0], W: rw[1]})
			if err != nil {
				panic(err)
			}
			trace := workload.KVOps(ops, 10_000, skew, 0.9, 128, uint64(rw[0]*10+rw[1]))
			start := time.Now()
			for i, op := range trace {
				coord := topology.NodeID(i % 8)
				switch op.Kind {
				case workload.OpPut:
					if _, err := store.Put(coord, op.Key, op.Value); err != nil {
						panic(err)
					}
				case workload.OpGet:
					if _, _, err := store.Get(coord, op.Key); err != nil && err != kvstore.ErrNotFound {
						panic(err)
					}
				}
			}
			elapsed := time.Since(start)
			getH := store.Reg.Histogram("get_latency_ns").Snapshot()
			putH := store.Reg.Histogram("put_latency_ns").Snapshot()

			// Linearizability check: capture a concurrent client history
			// against the same (already loaded) store and search for a
			// sequential witness. Runs for every quorum config — in this
			// simulation writes reach every live preference replica
			// synchronously, so even R+W <= N configs must check out.
			name := fmt.Sprintf("E5/r%dw%d/zipf-%.2f", rw[0], rw[1], skew)
			h := check.CaptureHistory(store, check.CaptureConfig{
				Clients: 4, Waves: 20, Keys: 6, Nodes: 8,
				ReadFraction: 0.4, DeleteFraction: 0.1,
				Seed:       uint64(rw[0]*10 + rw[1]),
				IsNotFound: func(err error) bool { return err == kvstore.ErrNotFound },
			})
			diff := t.recordCheck(check.Linearizable(h).Diff(name))

			t.AddRow(
				fmt.Sprintf("%d", rw[0]), fmt.Sprintf("%d", rw[1]),
				fmt.Sprintf("%.2f", skew),
				fmt.Sprintf("%.0f", float64(ops)/elapsed.Seconds()),
				time.Duration(int64(getH.Mean)).Round(time.Microsecond).String(),
				time.Duration(getH.P99).Round(time.Microsecond).String(),
				time.Duration(int64(putH.Mean)).Round(time.Microsecond).String(),
				fmt.Sprintf("%d", store.Reg.Counter("read_repairs").Value()),
				verdictCell(diff),
			)
		}
	}
	return t
}
