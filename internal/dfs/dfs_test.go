package dfs

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
)

func newTestDFS(blockSize int64, repl int) *DFS {
	return New(Config{
		BlockSize:   blockSize,
		Replication: repl,
		Topology:    topology.TwoTier(3, 4, 2), // 12 nodes
		Seed:        1,
	})
}

func writeFile(t testing.TB, d *DFS, path string, data []byte) {
	t.Helper()
	w, err := d.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, d *DFS, path string) []byte {
	t.Helper()
	r, err := d.Open(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func testData(n int) []byte {
	b := make([]byte, n)
	rng.New(42).Bytes(b)
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := newTestDFS(1024, 3)
	data := testData(10_000) // ~10 blocks
	writeFile(t, d, "/data/file1", data)
	got := readFile(t, d, "/data/file1")
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %d vs %d bytes", len(got), len(data))
	}
}

func TestEmptyFile(t *testing.T) {
	d := newTestDFS(1024, 3)
	writeFile(t, d, "/empty", nil)
	if got := readFile(t, d, "/empty"); len(got) != 0 {
		t.Fatalf("empty file read %d bytes", len(got))
	}
	fi, err := d.Stat("/empty")
	if err != nil || fi.Size != 0 || fi.Blocks != 0 {
		t.Fatalf("Stat = %+v, %v", fi, err)
	}
}

func TestBlockSplit(t *testing.T) {
	d := newTestDFS(1000, 2)
	writeFile(t, d, "/f", testData(2500))
	fi, _ := d.Stat("/f")
	if fi.Blocks != 3 {
		t.Fatalf("2500 bytes at 1000-byte blocks = %d blocks, want 3", fi.Blocks)
	}
	if fi.Size != 2500 {
		t.Fatalf("size = %d", fi.Size)
	}
	locs, err := d.BlockLocations("/f")
	if err != nil {
		t.Fatal(err)
	}
	if locs[0].Length != 1000 || locs[2].Length != 500 {
		t.Fatalf("block lengths %d,%d,%d", locs[0].Length, locs[1].Length, locs[2].Length)
	}
}

func TestReplicationCount(t *testing.T) {
	d := newTestDFS(1024, 3)
	writeFile(t, d, "/f", testData(4096))
	locs, _ := d.BlockLocations("/f")
	for i, b := range locs {
		if len(b.Replicas) != 3 {
			t.Fatalf("block %d has %d replicas, want 3", i, len(b.Replicas))
		}
		seen := map[topology.NodeID]bool{}
		for _, n := range b.Replicas {
			if seen[n] {
				t.Fatalf("block %d duplicated replica on node %d", i, n)
			}
			seen[n] = true
		}
	}
}

func TestRackAwarePlacement(t *testing.T) {
	top := topology.TwoTier(3, 4, 2)
	d := New(Config{BlockSize: 512, Replication: 3, Topology: top, Seed: 7})
	writeFile(t, d, "/f", testData(512*20))
	locs, _ := d.BlockLocations("/f")
	for i, b := range locs {
		racks := map[int]bool{}
		for _, n := range b.Replicas {
			racks[top.RackOf(n)] = true
		}
		if len(racks) < 2 {
			t.Fatalf("block %d: all 3 replicas on one rack", i)
		}
	}
}

func TestWriterHintGetsFirstReplica(t *testing.T) {
	d := newTestDFS(1024, 3)
	w, err := d.CreateWith("/hinted", 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(testData(3000)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	locs, _ := d.BlockLocations("/hinted")
	for i, b := range locs {
		if b.Replicas[0] != 5 {
			t.Fatalf("block %d first replica on %d, want hinted node 5", i, b.Replicas[0])
		}
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	d := newTestDFS(1024, 2)
	writeFile(t, d, "/dup", testData(10))
	if _, err := d.Create("/dup"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create error = %v", err)
	}
}

func TestOpenMissingFails(t *testing.T) {
	d := newTestDFS(1024, 2)
	if _, err := d.Open("/nope", -1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.Stat("/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := d.Delete("/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriterClosedRejectsWrites(t *testing.T) {
	d := newTestDFS(1024, 2)
	w, _ := d.Create("/f")
	_ = w.Close()
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("err = %v", err)
	}
	if err := w.Close(); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("double close err = %v", err)
	}
}

func TestDeleteFreesStorage(t *testing.T) {
	d := newTestDFS(1024, 3)
	writeFile(t, d, "/f", testData(10_000))
	if d.TotalStoredBytes() != 30_000 {
		t.Fatalf("stored = %d, want 30000 (3 replicas)", d.TotalStoredBytes())
	}
	if err := d.Delete("/f"); err != nil {
		t.Fatal(err)
	}
	if d.TotalStoredBytes() != 0 {
		t.Fatalf("stored after delete = %d", d.TotalStoredBytes())
	}
}

func TestList(t *testing.T) {
	d := newTestDFS(1024, 2)
	writeFile(t, d, "/a/1", testData(1))
	writeFile(t, d, "/a/2", testData(1))
	writeFile(t, d, "/b/1", testData(1))
	got := d.List("/a/")
	if len(got) != 2 || got[0] != "/a/1" || got[1] != "/a/2" {
		t.Fatalf("List(/a/) = %v", got)
	}
	if len(d.List("")) != 3 {
		t.Fatal("List all wrong")
	}
}

func TestReadSurvivesNodeFailure(t *testing.T) {
	d := newTestDFS(1024, 3)
	data := testData(5000)
	writeFile(t, d, "/f", data)
	locs, _ := d.BlockLocations("/f")
	// Kill the first replica of every block.
	killed := map[topology.NodeID]bool{}
	for _, b := range locs {
		killed[b.Replicas[0]] = true
	}
	for n := range killed {
		if err := d.KillNode(n); err != nil {
			t.Fatal(err)
		}
	}
	got := readFile(t, d, "/f")
	if !bytes.Equal(got, data) {
		t.Fatal("read after failure mismatch")
	}
}

func TestBlockLostWhenAllReplicasDead(t *testing.T) {
	d := New(Config{BlockSize: 1024, Replication: 2, Topology: topology.Single(2), Seed: 1})
	writeFile(t, d, "/f", testData(100))
	_ = d.KillNode(0)
	_ = d.KillNode(1)
	r, err := d.Open("/f", -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(r); !errors.Is(err, ErrBlockLost) {
		t.Fatalf("err = %v, want ErrBlockLost", err)
	}
	// Revive and the data is back.
	_ = d.ReviveNode(0)
	if got := readFile(t, d, "/f"); len(got) != 100 {
		t.Fatal("revive did not restore data")
	}
}

func TestUnderReplicatedAndRereplicate(t *testing.T) {
	d := newTestDFS(1024, 3)
	data := testData(8192)
	writeFile(t, d, "/f", data)
	locs, _ := d.BlockLocations("/f")
	victim := locs[0].Replicas[0]
	_ = d.KillNode(victim)

	under := d.UnderReplicated()
	if len(under) == 0 {
		t.Fatal("no under-replicated blocks after node kill")
	}
	n, copied := d.Rereplicate()
	if n == 0 || copied == 0 {
		t.Fatalf("Rereplicate created %d replicas, %d bytes", n, copied)
	}
	if remaining := d.UnderReplicated(); len(remaining) != 0 {
		t.Fatalf("still under-replicated after repair: %v", remaining)
	}
	// All blocks must again have 3 live replicas.
	locs, _ = d.BlockLocations("/f")
	for i, b := range locs {
		if len(b.Replicas) != 3 {
			t.Fatalf("block %d has %d live replicas after repair", i, len(b.Replicas))
		}
	}
	if !bytes.Equal(readFile(t, d, "/f"), data) {
		t.Fatal("data corrupted by re-replication")
	}
}

func TestReadBlockPrefersLocalReplica(t *testing.T) {
	d := newTestDFS(1024, 3)
	writeFile(t, d, "/f", testData(1024))
	locs, _ := d.BlockLocations("/f")
	holder := locs[0].Replicas[1]
	_, served, err := d.ReadBlock(locs[0].ID, holder)
	if err != nil {
		t.Fatal(err)
	}
	if served != holder {
		t.Fatalf("read served from %d, want local node %d", served, holder)
	}
}

func TestReplicationClampedToClusterSize(t *testing.T) {
	d := New(Config{BlockSize: 1024, Replication: 10, Topology: topology.Single(3), Seed: 1})
	writeFile(t, d, "/f", testData(100))
	locs, _ := d.BlockLocations("/f")
	if len(locs[0].Replicas) != 3 {
		t.Fatalf("replicas = %d, want clamped to 3", len(locs[0].Replicas))
	}
}

func TestKillUnknownNode(t *testing.T) {
	d := newTestDFS(1024, 2)
	if err := d.KillNode(99); !errors.Is(err, ErrNodeUnknown) {
		t.Fatalf("err = %v", err)
	}
	if err := d.ReviveNode(-1); !errors.Is(err, ErrNodeUnknown) {
		t.Fatalf("err = %v", err)
	}
}

func TestManySmallFiles(t *testing.T) {
	d := newTestDFS(256, 2)
	for i := 0; i < 50; i++ {
		path := "/small/" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		writeFile(t, d, path, testData(100+i))
	}
	if got := len(d.List("/small/")); got != 50 {
		t.Fatalf("listed %d files, want 50", got)
	}
}

func BenchmarkWrite(b *testing.B) {
	d := New(Config{BlockSize: 1 << 20, Replication: 3, Topology: topology.TwoTier(2, 4, 2), Seed: 1})
	data := testData(1 << 20)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		w, err := d.CreateWith(string(rune(i))+"/bench", 3, -1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
