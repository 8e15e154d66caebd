package kvstore

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/topology"
)

// txnMix is the kv_txn benchmark's shape without bench/: 1 024 keys over
// 3 splits on 2 groups, 64-byte values, zipf-chosen keys. One iteration
// is a 2-key Txn, a Put and a Get.
type txnMix struct {
	s    *Sharded
	keys []string
	pool [][]byte
	r    *rng.RNG
	z    *rng.Zipf
}

func newTxnMix(tb testing.TB) *txnMix {
	x := &txnMix{keys: make([]string, 1024), pool: make([][]byte, 16), r: rng.New(11)}
	for i := range x.keys {
		x.keys[i] = fmt.Sprintf("key-%08d", i)
	}
	for i := range x.pool {
		x.pool[i] = make([]byte, 64)
		x.r.Bytes(x.pool[i])
	}
	x.z = rng.NewZipf(x.r, len(x.keys), 0.9)
	x.s = NewSharded(ShardedConfig{Seed: 11, Groups: 2, InitialSplits: []string{x.keys[256], x.keys[512], x.keys[768]}})
	for i, k := range x.keys {
		if err := x.s.Put(context.Background(), k, x.pool[i%len(x.pool)]); err != nil {
			tb.Fatalf("preload %s: %v", k, err)
		}
	}
	return x
}

func (x *txnMix) iter(tb testing.TB) {
	ctx := context.Background()
	a := x.z.Next()
	b := (a + 1 + x.r.Intn(len(x.keys)-1)) % len(x.keys)
	k1, k2, v := x.keys[a], x.keys[b], x.pool[x.r.Intn(len(x.pool))]
	if got, err := x.s.Txn(ctx, []string{k1, k2}, map[string][]byte{k1: v, k2: v}); err != nil || len(got) != 2 {
		tb.Fatalf("txn %s,%s: read %d keys, err %v", k1, k2, len(got), err)
	}
	if err := x.s.Put(ctx, x.keys[x.z.Next()], v); err != nil {
		tb.Fatal(err)
	}
	if _, found, err := x.s.Get(ctx, x.keys[x.z.Next()]); err != nil || !found {
		tb.Fatalf("get: found %v, err %v", found, err)
	}
}

// BenchmarkShardedTxnMix gives the kv_txn before/after profile from go
// test: -cpuprofile/-memprofile here, no bench/ involved. It also reports
// the snapshot bytes built and the log compactions per iteration, so its
// output names how much of B/op log compaction takes.
func BenchmarkShardedTxnMix(b *testing.B) {
	x := newTxnMix(b)
	snapBytes, compactions := x.s.Reg.Counter("ha_snapshot_bytes"), x.s.Reg.Counter("ha_compactions")
	b.ReportAllocs()
	b.ResetTimer()
	bytes0, comp0 := snapBytes.Value(), compactions.Value()
	for i := 0; i < b.N; i++ {
		x.iter(b)
	}
	b.ReportMetric(float64(snapBytes.Value()-bytes0)/float64(b.N), "snapshot_B/op")
	b.ReportMetric(float64(compactions.Value()-comp0)/float64(b.N), "compactions/op")
}

// The ceilings below are what the replication path is allowed to cost,
// so that a regression fails loudly here instead of drifting into the
// benchmark. Commands are encoded before measuring: the machines' share
// is measured alone. The coordinator encodes into a buffer on its stack
// (TestCoordinatorEncodersFitCallerBuffer), so what a proposal keeps is
// ha's envelope.

const allocRuns = 200

func requireAllocs(t *testing.T, what string, ceiling float64, f func()) {
	t.Helper()
	if got := testing.AllocsPerRun(allocRuns, f); got > ceiling {
		t.Errorf("%s: %.0f allocs per run, ceiling %.0f", what, got, ceiling)
	}
}

// eachRun returns a function applying the next of allocRuns+1 commands
// (AllocsPerRun warms up once) and failing on any status but rspOK.
func eachRun(t *testing.T, apply func([]byte) []byte, enc func(i uint64) []byte) func() {
	cmds := make([][]byte, allocRuns+1)
	for i := range cmds {
		cmds[i] = enc(uint64(i))
	}
	next := 0
	return func() {
		if resp := apply(cmds[next]); resp[0] != rspOK {
			t.Fatalf("run %d: status %d", next, resp[0])
		}
		next++
	}
}

func TestRangeMachineAllocCeilings(t *testing.T) {
	m := newRangeMachine()
	m.Apply(encRmAdopt(nil, "", "", nil))
	val := make([]byte, 64)
	m.Apply(encRmPut(nil, "a", val, 1))
	m.Apply(encRmPut(nil, "b", val, 1))
	writes := []rmWrite{{Key: "a", Val: val}, {Key: "b", Val: val}}

	requireAllocs(t, "put on an existing key", 1, eachRun(t, m.Apply, func(i uint64) []byte {
		return encRmPut(nil, "a", val, 2+i)
	}))
	requireAllocs(t, "get of an existing key", 1, eachRun(t, m.Apply, func(uint64) []byte {
		return encRmGet(nil, "a", false)
	}))
	// Re-preparing under one txn id re-takes its own locks: the full
	// check, lock and read walk every time.
	requireAllocs(t, "prepare of a 2-key txn", 2, eachRun(t, m.Apply, func(uint64) []byte {
		return encRmPrepare(nil, 1000, 0, false, []string{"a", "b"}, []string{"a", "b"})
	}))
	requireAllocs(t, "apply of a 2-key txn", 2, eachRun(t, m.Apply, func(i uint64) []byte {
		return encRmApply(nil, 1000+i, 1000+i, 1000+i, writes)
	}))
}

func TestTxnMachineBeginAllocCeiling(t *testing.T) {
	m := newTxnMachine()
	writes := []rmWrite{{Key: "a", Val: make([]byte, 64)}, {Key: "b", Val: make([]byte, 64)}}
	begin := eachRun(t, m.Apply, func(i uint64) []byte { return encTxBegin(nil, 1+i, []uint64{0, 1}, writes) })
	done := eachRun(t, m.Apply, func(i uint64) []byte { return encTxDone(nil, 1+i) })
	// Retiring the record keeps the table at the benchmark's size; done
	// answers with a shared status and allocates nothing of its own.
	requireAllocs(t, "txn begin (+done)", 3, func() { begin(); done() })
}

// TestCoordinatorEncodersFitCallerBuffer: every coordinator encoder writes
// its command from the start of a buffer that holds it, allocating
// nothing, and into one exactly-sized array when the buffer is too short.
// Either way the bytes are the nil-buffer path's
// (TestSingleKeyEncodersSizeExactly).
func TestCoordinatorEncodersFitCallerBuffer(t *testing.T) {
	pairs := []kvPair{{key: "b", rval: rval{val: []byte("vb"), ver: 3}}, {key: "x", rval: rval{ver: 4, dead: true}}}
	writes := []rmWrite{{Key: "a", Val: make([]byte, 64)}, {Key: "bb", Del: true}}
	var buf cmdBuf
	for _, enc := range []struct {
		name string
		cmd  func(b []byte) []byte
	}{
		{"put", func(b []byte) []byte { return encRmPut(b, "key", writes[0].Val, 7) }},
		{"get", func(b []byte) []byte { return encRmGet(b, "key", true) }},
		{"del", func(b []byte) []byte { return encRmDel(b, "key", 9) }},
		{"prepare", func(b []byte) []byte { return encRmPrepare(b, 7, 6, true, []string{"a", "bb"}, []string{"bb"}) }},
		{"apply", func(b []byte) []byte { return encRmApply(b, 7, 6, 5, writes) }},
		{"abort", func(b []byte) []byte { return encRmAbort(b, 7, 6) }},
		{"adopt", func(b []byte) []byte { return encRmAdopt(b, "a", "m", pairs) }},
		{"freeze", func(b []byte) []byte { return encRmFreeze(b, "k") }},
		{"trim", func(b []byte) []byte { return encRmTrim(b, "k") }},
		{"begin", func(b []byte) []byte { return encTxBegin(b, 1, []uint64{0, 1}, writes) }},
		{"commit", func(b []byte) []byte { return encTxCommit(b, 1, 10) }},
		{"txn abort", func(b []byte) []byte { return encTxAbort(b, 1) }},
		{"done", func(b []byte) []byte { return encTxDone(b, 1) }},
	} {
		want := enc.cmd(nil)
		var got []byte
		if n := testing.AllocsPerRun(allocRuns, func() { got = enc.cmd(buf[:]) }); n != 0 {
			t.Errorf("%s into a buffer that fits: %.0f allocs, want 0", enc.name, n)
		}
		if &got[0] != &buf[0] || !bytes.Equal(got, want) {
			t.Errorf("%s into a buffer that fits: % x, want % x from the buffer's start", enc.name, got, want)
		}
		short := make([]byte, 4) // shorter than any command
		if got := enc.cmd(short); len(got) != cap(got) || &got[0] == &short[0] || !bytes.Equal(got, want) {
			t.Errorf("%s into a short buffer: % x (cap %d), want % x in a fresh exact array", enc.name, got, cap(got), want)
		}
	}
}

// 28 allocations per iteration: the coordinator encodes every command into
// a stack array and routes a Txn with four arrays. With a fresh array per
// command and a per-key route the same iteration took 45.
func TestShardedTxnMixAllocCeiling(t *testing.T) {
	x := newTxnMix(t)
	requireAllocs(t, "Txn+Put+Get at the benchmark's shape", 30, func() { x.iter(t) })
}

// Bytes per iteration: 5.1 KB here (4.9 KB in BenchmarkShardedTxnMix)
// once commands are encoded on the coordinator's stack; 6.1 KB (5.6 KB)
// with an exactly-sized array per command. Compacting every 128 entries
// read 10.1 KB (11.0 KB), and copying each snapshot twice before that
// 16.2 KB. The race detector adds about 40 bytes.
func TestShardedTxnMixByteCeiling(t *testing.T) {
	const runs, byteCeiling = 1000, 5600
	x := newTxnMix(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		x.iter(t)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > byteCeiling {
		t.Errorf("Txn+Put+Get at the benchmark's shape: %d bytes per iteration, ceiling %d", got, byteCeiling)
	}
}

// TestRingGetPutAllocCeiling pins the quorum ring's Get/Put on a
// preloaded 8-node RDMA store: each allocates only its defensive copy of
// the value, and a Get of a missing key allocates nothing. With
// map-and-append preference lists, heap-held responses and sort.Slice
// the same calls took 10 (Get), 9 (Put) and 9 (missing Get).
func TestRingGetPutAllocCeiling(t *testing.T) {
	s, err := New(Config{Fabric: netsim.NewFabric(topology.TwoTier(2, 4, 2), netsim.RDMA40G), N: 3, R: 2, W: 2})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 1000)
	val := make([]byte, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		for range 2 { // the second put fills the overwritten-version maps
			if _, err := s.Put(topology.NodeID(i%8), keys[i], val); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	requireAllocs(t, "Get of a present key", 1, func() {
		i++
		if _, _, err := s.Get(topology.NodeID(i%8), keys[i%len(keys)]); err != nil {
			t.Fatal(err)
		}
	})
	requireAllocs(t, "Put", 1, func() {
		i++
		if _, err := s.Put(topology.NodeID(i%8), keys[i%len(keys)], val); err != nil {
			t.Fatal(err)
		}
	})
	requireAllocs(t, "Get of a missing key", 0, func() {
		i++
		if _, _, err := s.Get(topology.NodeID(i%8), "missing"); err != ErrNotFound {
			t.Fatal(err)
		}
	})
}
