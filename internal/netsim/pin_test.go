package netsim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"repro/internal/topology"
)

// TestModelMatchesParent pins every transport's cost model and flow
// simulator to the commit its constants were recorded on: Cost over a
// size × distance grid, then Simulate on a fixed flow set with one
// partition and one degraded node, reachability included. A change that
// moves one simulated nanosecond fails it; record the new constant on
// the parent commit first if the move is deliberate.
func TestModelMatchesParent(t *testing.T) {
	for _, c := range []struct {
		model Model
		want  uint64
	}{
		{TCP40G, 0x699c24eecfeb800a},
		{IPoIB40G, 0x73d2bcd2d91dc029},
		{RDMA40G, 0xb1f11d45c76ba043},
	} {
		if got := modelDigest(c.model); got != c.want {
			t.Errorf("%s: digest %#x, want %#x", c.model.Name, got, c.want)
		}
	}
}

func modelDigest(model Model) uint64 {
	h := fnv.New64a()
	word := func(v uint64) { _, _ = h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	f := NewFabric(topology.TwoTier(2, 4, 3), model)
	// Same node, same rack, across the core; before and after degrading
	// node 5, which only the cross-core pair touches.
	pairs := [][2]topology.NodeID{{0, 0}, {0, 1}, {0, 5}, {6, 2}}
	sizes := []int64{-1, 0, 1, 64, 1500, 4 << 10, 64 << 10, 1 << 20, 64 << 20}
	for _, degrade := range []float64{1, 2.5} {
		f.SetNodeDegrade(5, degrade)
		for _, p := range pairs {
			for _, size := range sizes {
				word(uint64(f.Cost(p[0], p[1], size)))
			}
		}
	}
	if err := f.SetPartition([]topology.NodeID{0, 1, 2, 3}, []topology.NodeID{4, 5, 6}); err != nil {
		panic(err)
	}
	flows := []Flow{
		{Src: 0, Dst: 1, Bytes: 1 << 20},
		{Src: 0, Dst: 4, Bytes: 4 << 20},
		{Src: 1, Dst: 5, Bytes: 2 << 20, Start: 50 * time.Microsecond},
		{Src: 2, Dst: 2, Bytes: 8 << 20},
		{Src: 3, Dst: 7, Bytes: 512 << 10, Start: time.Millisecond},
		{Src: 5, Dst: 6, Bytes: 3 << 20},
		{Src: 6, Dst: 0, Bytes: 1 << 20, Start: 200 * time.Microsecond},
		{Src: 7, Dst: 4, Bytes: 0},
	}
	for i, r := range f.Simulate(flows) {
		word(uint64(r.Finish))
		word(math.Float64bits(r.GoodputBps))
		if f.Reachable(flows[i].Src, flows[i].Dst) {
			word(1)
		}
	}
	return h.Sum64()
}
