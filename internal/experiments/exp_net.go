package experiments

import (
	"fmt"
	"time"

	"repro/internal/consensus"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// E1Transport measures one-way latency and achievable goodput for each
// transport model across message sizes — the standard RDMA-vs-TCP
// microbenchmark curve.
func E1Transport(p Params) *Table {
	t := &Table{
		ID:    "E1",
		Title: "Transport microbenchmark: latency and goodput vs message size",
		Note:  "uncontended, cross-rack path; models calibrated per DESIGN.md",
		Cols:  []string{"size", "tcp-lat", "ipoib-lat", "rdma-lat", "tcp-GB/s", "ipoib-GB/s", "rdma-GB/s", "tcp/rdma"},
	}
	top := topology.TwoTier(2, 4, 2)
	fabrics := []*netsim.Fabric{
		netsim.NewFabric(top, netsim.TCP40G),
		netsim.NewFabric(top, netsim.IPoIB40G),
		netsim.NewFabric(top, netsim.RDMA40G),
	}
	sizes := pick(p.Scale,
		[]int64{64, 4096, 1 << 20},
		[]int64{64, 512, 4096, 64 << 10, 1 << 20, 4 << 20})
	for _, size := range sizes {
		var lats [3]time.Duration
		var gbps [3]float64
		for i, f := range fabrics {
			lats[i] = f.Cost(0, 4, size)
			gbps[i] = f.Throughput(0, 4, size) / 1e9
		}
		t.AddRow(
			byteSize(size),
			lats[0].String(), lats[1].String(), lats[2].String(),
			fmt.Sprintf("%.2f", gbps[0]), fmt.Sprintf("%.2f", gbps[1]), fmt.Sprintf("%.2f", gbps[2]),
			fmt.Sprintf("%.1fx", float64(lats[0])/float64(lats[2])),
		)
	}
	return t
}

// E12Raft measures Raft commit latency (protocol rounds x transport RTT)
// and in-process proposal throughput versus cluster size and transport.
func E12Raft(p Params) *Table {
	t := &Table{
		ID:    "E12",
		Title: "Raft commit latency vs cluster size and transport",
		Note:  "latency = commit round trips x cross-rack RTT of the model",
		Cols:  []string{"nodes", "rounds", "tcp-commit", "rdma-commit", "proposals/s"},
	}
	proposals := pick(p.Scale, 200, 2000)
	for _, n := range []int{3, 5, 7} {
		c := consensus.NewCluster(n, uint64(n))
		if c.RunUntilLeader(500) < 0 {
			t.AddRow(fmt.Sprintf("%d", n), "no leader", "-", "-", "-")
			continue
		}
		c.Propose([]byte("warmup"))
		rounds, ok := c.ProposeAndCountRounds([]byte("measured"))
		if !ok {
			rounds = -1
		}
		// Throughput: real wall time of sequential proposals.
		start := time.Now()
		for i := 0; i < proposals; i++ {
			c.Propose([]byte("payload-for-throughput-measurement"))
		}
		elapsed := time.Since(start)
		tps := float64(proposals) / elapsed.Seconds()

		top := topology.TwoTier(2, (n+1)/2, 2)
		rtt := func(m netsim.Model) time.Duration {
			f := netsim.NewFabric(top, m)
			// One protocol round = request + response across the fabric.
			one := f.Cost(0, topology.NodeID(top.Size()-1), 256) * 2
			return time.Duration(rounds) * one
		}
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", rounds),
			rtt(netsim.TCP40G).String(),
			rtt(netsim.RDMA40G).String(),
			fmt.Sprintf("%.0f", tps),
		)
	}
	return t
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
