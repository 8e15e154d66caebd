package group

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// keyStream is a seeded stream over n distinct byte keys (the empty key
// among them): each arrives once, then they come back shuffled, with runs
// of the same key that take the last-key shortcut.
func keyStream(gen *rng.RNG, n int) []string {
	distinct := map[string]bool{"": true}
	keys := []string{""}
	for len(keys) < n {
		k := make([]byte, gen.Intn(13))
		for i := range k {
			k[i] = byte(gen.Intn(4)) // a small alphabet: keys share prefixes
		}
		if !distinct[string(k)] {
			distinct[string(k)] = true
			keys = append(keys, string(k))
		}
	}
	out := slices.Clone(keys)
	for i := 0; i < 2*n; i++ {
		k := keys[gen.Intn(n)]
		for r := gen.Intn(3); r >= 0; r-- {
			out = append(out, k)
		}
	}
	return out
}

// checkAgainstMap runs stream through id and through a Go map: both must
// number every key alike, and say alike whether it is new.
func checkAgainstMap[K comparable](t testing.TB, name string, stream []K, id func(K) (int32, bool), keys func() []K) {
	t.Helper()
	want := map[K]int32{}
	var order []K
	for j, k := range stream {
		w, seen := want[k]
		if !seen {
			w = int32(len(want))
			want[k] = w
			order = append(order, k)
		}
		if got, added := id(k); got != w || added == seen {
			t.Fatalf("%s: key %d (%v) got id %d added %t, want %d added %t", name, j, k, got, added, w, !seen)
		}
	}
	if !slices.EqualFunc(keys(), order, func(a, b K) bool { return a == b || a != a && b != b }) { // NaN: a new key each time
		t.Fatalf("%s: keys differ from the order of first arrival", name)
	}
}

// checkFind checks KeyTable.Find against what tab holds: every key is
// found under the number ID gave it (a NaN, never equal, is never found),
// absent keys and every key of a zero-value table are not, and no lookup
// adds a key.
func checkFind[K comparable](t testing.TB, name string, tab *KeyTable[K], absent ...K) {
	t.Helper()
	var zero KeyTable[K]
	n := len(tab.Keys())
	for id, k := range tab.Keys() {
		want := int32(id)
		if k != k {
			want = -1
		}
		if got, ok := tab.Find(k); got != want || ok != (want >= 0) {
			t.Fatalf("%s: Find(%v) = %d, %t; want %d", name, k, got, ok, want)
		}
		if got, ok := zero.Find(k); got != -1 || ok {
			t.Fatalf("%s: a zero-value table finds %v at %d", name, k, got)
		}
	}
	for _, k := range absent {
		if got, ok := tab.Find(k); got != -1 || ok {
			t.Fatalf("%s: Find(%v) = %d, %t for a key never added", name, k, got, ok)
		}
	}
	if len(tab.Keys()) != n || len(zero.Keys()) != 0 {
		t.Fatalf("%s: Find added a key", name)
	}
}

// checkByteTable runs stream through a fresh ByteKeyTable and a Go map,
// as checkAgainstMap does, and checks the table's own view of what it
// holds: Len and Key by number. Each key is read back as it is
// added, and every one read must still hold its bytes at the end, however
// often the arena grew in between.
func checkByteTable(t testing.TB, name string, stream []string) {
	t.Helper()
	var b ByteKeyTable
	var read [][]byte // by id, as read just after the key was added
	checkAgainstMap(t, name, stream, func(k string) (int32, bool) {
		id, added := b.ID([]byte(k))
		if added {
			read = append(read, b.Key(id))
		}
		return id, added
	}, func() []string {
		out := make([]string, b.Len())
		for id := range out {
			out[id] = string(b.Key(int32(id)))
		}
		return out
	})
	for id, k := range read {
		if string(b.Key(int32(id))) != string(k) {
			t.Fatalf("%s: key %d read as %q when added, %q now", name, id, k, b.Key(int32(id)))
		}
	}
}

// TestKeyTableMatchesMap: both faces of the table number keys exactly as a
// Go map does, whatever the seed: every table here draws its own, and a
// constant hash puts every key in one probe chain. Ids never depend on the
// hash. Floats keep the map's == semantics (±0 one key, NaN a new key each
// time). KeyTable finds every key it holds without adding one. The byte
// face also reads every key back, by number, across the growth of its
// slots and of its arena.
func TestKeyTableMatchesMap(t *testing.T) {
	gen := rng.New(1)
	for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1023, 1024, 1025} { // growth boundaries
		strs := keyStream(gen, n)
		checkByteTable(t, fmt.Sprintf("bytes, %d keys", n), strs)
		for name, hash := range map[string]func(string) uint64{
			"seeded":    nil,
			"one chain": func(string) uint64 { return 0 },
			"top slots": func(s string) uint64 { return ^uint64(len(s) % 3) }, // chains that wrap past the last slot
		} {
			tab := &KeyTable[string]{hash: hash}
			checkAgainstMap(t, fmt.Sprintf("%s, %d keys", name, n), strs, tab.ID, tab.Keys)
			checkFind(t, fmt.Sprintf("%s, %d keys", name, n), tab, "absent: longer than any key", "\x04")
		}
	}
	gen = rng.New(2)
	ints := make([]int64, 20000)
	for i := range ints {
		ints[i] = gen.Int63n(3000) - 1500
	}
	var tab KeyTable[int64]
	checkAgainstMap(t, "int64", ints, tab.ID, tab.Keys)
	checkFind(t, "int64", &tab, 1500, -1501, math.MinInt64, math.MaxInt64)
	bytes8 := []uint8{0, 255, 1, 0, 7, 255, 128}
	var tab8 KeyTable[uint8]
	checkAgainstMap(t, "uint8", bytes8, tab8.ID, tab8.Keys)
	checkFind(t, "uint8", &tab8, 2, 254)
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, math.NaN(), -1.5, 0, math.Inf(1), 1.5, math.Inf(-1)}
	for i := 0; i < 3000; i++ {
		floats = append(floats, float64(gen.Int63n(500))/4)
	}
	var tabf KeyTable[float64]
	checkAgainstMap(t, "float64", floats, tabf.ID, tabf.Keys)
	checkFind(t, "float64", &tabf, 0.1, math.NaN())
	tabf.Reset()
	checkFind(t, "float64 after Reset", &tabf, 0, 1.5, math.Inf(1))
	checkAgainstMap(t, "float64 after Reset", floats, tabf.ID, tabf.Keys)

	// The arena starts at 256 bytes and doubles: distinct keys of one
	// length that fill it exactly (all 256 one-byte keys), fall short of
	// or run past each boundary up to 4 KiB, and keys longer than the
	// arena it would double to.
	for _, size := range []int{1, 7, 8, 9, 255, 256, 257, 600} {
		var stream []string
		for i := 0; len(stream)*size <= 4096 && (size > 1 || i < 256); i++ {
			k := make([]byte, size) // i big-endian in its last bytes
			for j, v := size-1, i; j >= 0 && v > 0; j, v = j-1, v>>8 {
				k[j] = byte(v)
			}
			stream = append(stream, string(k))
		}
		stream = append(stream, stream...) // every key again: hits read the arena the keys ended in
		checkByteTable(t, fmt.Sprintf("%d-byte keys", size), stream)
	}
}

// TestKeyTableHitDoesNotAllocate: looking up a key already in the table
// allocates nothing, on either face, and neither does KeyTable.Find.
func TestKeyTableHitDoesNotAllocate(t *testing.T) {
	var b ByteKeyTable
	var strs KeyTable[string]
	var ints KeyTable[int64]
	keys, names := make([][]byte, 1000), make([]string, 1000)
	for i := range keys {
		names[i] = fmt.Sprintf("key-%d", i)
		keys[i] = []byte(names[i])
		b.ID(keys[i])
		strs.ID(names[i])
		ints.ID(int64(i))
	}
	for name, lookup := range map[string]func(i int){
		"ByteKeyTable.ID":       func(i int) { b.ID(keys[i]) },
		"KeyTable[string]":      func(i int) { strs.ID(names[i]) },
		"KeyTable[string].Find": func(i int) { strs.Find(names[i]) },
		"KeyTable[int64]":       func(i int) { ints.ID(int64(i)) },
		"KeyTable[int64].Find":  func(i int) { ints.Find(int64(i)) },
	} {
		i := 0
		if n := testing.AllocsPerRun(100, func() { lookup(i * 7 % len(keys)); i++ }); n != 0 {
			t.Errorf("%s: %v allocations on a hit, want 0", name, n)
		}
	}
}

// FuzzKeyTable: keys cut from the fuzz bytes number alike through both
// faces and a Go map, KeyTable finds them, and the byte face reads them
// back by number.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03abc\x03abc\x00\x00\x01a\x03abc"))
	f.Add([]byte("\x02ab\x02ab\x02ac\x01a\x01a\x02ab\x04abcd"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var stream []string
		for len(data) > 0 {
			n := min(int(data[0]%12), len(data)-1)
			stream = append(stream, string(data[1:1+n]))
			data = data[1+n:]
		}
		checkByteTable(t, "bytes", stream)
		tab := KeyTable[string]{hash: func(s string) uint64 { return uint64(len(s)) << 60 }} // long shared chains
		checkAgainstMap(t, "strings", stream, tab.ID, tab.Keys)
		checkFind(t, "strings", &tab, "absent: longer than any key")
	})
}
