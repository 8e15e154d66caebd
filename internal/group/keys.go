// Package group is the one grouping table behind every keyed fold: the root
// package's map-side folds and reduce sides, the table layer's aggregates
// and joins (typed keys where read from a column), the shuffle writer's
// combiner and the stream windower's panes. A zero table is ready to use.
package group

import (
	"bytes"
	"hash/maphash"
	"math"
	"math/rand/v2"
	"slices"
)

// The key tables number distinct keys in order of first arrival: emission
// order, wire bytes, float merge order, stream firing order and
// shuffle.KeyOrder's input all follow the ids, so no id may depend on the
// hash or its seed. KeyTable is the face for typed keys (map-side folds,
// stream windows, the table layer's column keys), ByteKeyTable the face for
// encoded keys (reduce sides, the table layer's composite keys and shuffle
// join); sort its ids into key order with shuffle.KeyOrder(t.Len(), t.Key).

// slots is the open-addressing core both faces share: a power-of-two array
// of id+1 (0 is empty) probed linearly, and each id's hash and key beside
// it, so growing re-places ids without hashing a key again.
type slots[K any] struct {
	ids    []int32
	hashes []uint64 // by id
	keys   []K      // by id
	shift  uint     // a key's first slot is its hash's top bits
}

func (s *slots[K]) home(h uint64) int { return int(h >> s.shift) }
func (s *slots[K]) next(i int) int    { return (i + 1) & (len(s.ids) - 1) }

// size makes room for n ids at a load of at most one half. The hashes and
// keys get room for every id the table takes before it grows again, so
// they double with it rather than by append's smaller steps.
func (s *slots[K]) size(n int) {
	width := 4
	for 1<<width < 2*n {
		width++
	}
	s.ids, s.shift = make([]int32, 1<<width), uint(64-width)
	room := len(s.ids)/2 + 1 - len(s.hashes)
	s.hashes, s.keys = slices.Grow(s.hashes, room), slices.Grow(s.keys, room)
	for id, h := range s.hashes {
		i := s.home(h)
		for s.ids[i] != 0 {
			i = s.next(i)
		}
		s.ids[i] = int32(id + 1)
	}
}

// add gives the next id to key, of hash h, whose probe ended at the empty
// slot i.
func (s *slots[K]) add(i int, h uint64, key K) int32 {
	id := int32(len(s.hashes))
	s.hashes, s.keys = append(s.hashes, h), append(s.keys, key)
	s.ids[i] = id + 1
	if 2*len(s.hashes) > len(s.ids) {
		s.size(len(s.hashes))
	}
	return id
}

// KeyTable numbers typed keys. Integer kinds and strings are hashed by the
// table; at Go 1.22 only the runtime hashes any other K, so floats and
// structs go through a Go map, which keeps == semantics (±0 one key, NaN a
// new key each time).
type KeyTable[K comparable] struct {
	slots[K]
	hash  func(K) uint64 // seeded on the first ID; tests set it to force collisions
	other map[K]int32    // numbers K when hashOf has no hash for it
}

// hashOf returns a freshly seeded hash for K, or nil.
func hashOf[K comparable]() func(K) uint64 {
	var h any
	switch seed := rand.Uint64(); any(*new(K)).(type) {
	case int:
		h = intHash[int](seed)
	case int8:
		h = intHash[int8](seed)
	case int16:
		h = intHash[int16](seed)
	case int32:
		h = intHash[int32](seed)
	case int64:
		h = intHash[int64](seed)
	case uint:
		h = intHash[uint](seed)
	case uint8:
		h = intHash[uint8](seed)
	case uint16:
		h = intHash[uint16](seed)
	case uint32:
		h = intHash[uint32](seed)
	case uint64:
		h = intHash[uint64](seed)
	case uintptr:
		h = intHash[uintptr](seed)
	case string:
		s := maphash.MakeSeed()
		h = func(k string) uint64 { return maphash.String(s, k) }
	}
	f, _ := h.(func(K) uint64)
	return f
}

// intHash is Fibonacci hashing of the seeded key: the top bits, which pick
// the first slot, depend on every bit of the key.
func intHash[I int | int8 | int16 | int32 | int64 | uint | uint8 | uint16 | uint32 | uint64 | uintptr](seed uint64) func(I) uint64 {
	return func(k I) uint64 { return (uint64(k) ^ seed) * 0x9E3779B97F4A7C15 }
}

// ID returns k's number and whether k is new, giving it the next number if
// it is.
func (t *KeyTable[K]) ID(k K) (int32, bool) {
	if t.ids == nil {
		if t.hash == nil && t.other == nil {
			if t.hash = hashOf[K](); t.hash == nil {
				t.other = map[K]int32{}
			}
		}
		if t.other != nil {
			id, ok := t.other[k]
			if !ok {
				id = int32(len(t.keys))
				t.other[k], t.keys = id, append(t.keys, k)
			}
			return id, !ok
		}
		t.size(0)
	}
	h := t.hash(k)
	i := t.home(h)
	for ; t.ids[i] != 0; i = t.next(i) {
		if id := t.ids[i] - 1; t.keys[id] == k {
			return id, false
		}
	}
	return t.add(i, h, k), true
}

// Find returns k's number without adding it; it only reads the table, so
// any number of goroutines may call it at once.
func (t *KeyTable[K]) Find(k K) (int32, bool) {
	if t.ids == nil { // empty, or numbered through the map
		if id, ok := t.other[k]; ok {
			return id, true
		}
		return -1, false
	}
	for i := t.home(t.hash(k)); t.ids[i] != 0; i = t.next(i) {
		if id := t.ids[i] - 1; t.keys[id] == k {
			return id, true
		}
	}
	return -1, false
}

// Reset empties the table and keeps its room and its hash, so a table
// refilled with as many keys allocates nothing.
func (t *KeyTable[K]) Reset() {
	clear(t.ids)
	clear(t.other)
	clear(t.keys)
	t.hashes, t.keys = t.hashes[:0], t.keys[:0]
}

// Keys returns the keys by number. Its capacity is what the table holds
// before it next grows, which a slice kept in step with it can size from.
func (t *KeyTable[K]) Keys() []K { return t.keys }

// ByteKeyTable numbers byte keys, copying each new key into one arena that
// grows by doubling; a key is kept as its span of the arena, not as a slice
// header of its own. A key equal to the one looked up before it (clustered
// input, such as a join's output grouped on the join key) skips the hash.
// The zero value is ready to use.
type ByteKeyTable struct {
	slots[span]
	arena []byte
	seed  maphash.Seed
	last  int32
}

// span is a key's place in a ByteKeyTable's arena.
type span struct{ off, end uint32 }

// ID returns key's number and whether key is new, giving it the next
// number if it is. It does not allocate unless the key is new.
func (t *ByteKeyTable) ID(key []byte) (int32, bool) {
	if int(t.last) < len(t.keys) && bytes.Equal(t.Key(t.last), key) {
		return t.last, false
	}
	if t.ids == nil {
		t.seed = maphash.MakeSeed()
		t.size(0)
	}
	h := maphash.Bytes(t.seed, key)
	id, i := t.find(key, h)
	if id < 0 {
		off := len(t.arena)
		if off+len(key) > math.MaxUint32 {
			panic("group: ByteKeyTable holds more than 4 GiB of keys")
		}
		if off+len(key) > cap(t.arena) { // the old array stays as it was: keys read from it keep their bytes
			t.arena = append(make([]byte, 0, max(2*cap(t.arena), off+len(key), 256)), t.arena...)
		}
		t.arena = append(t.arena, key...)
		t.last = t.add(i, h, span{uint32(off), uint32(len(t.arena))})
		return t.last, true
	}
	t.last = id
	return id, false
}

// find returns key's number, or -1 and the empty slot where it would go.
func (t *ByteKeyTable) find(key []byte, h uint64) (int32, int) {
	i := t.home(h)
	for ; t.ids[i] != 0; i = t.next(i) {
		if id := t.ids[i] - 1; t.hashes[id] == h && bytes.Equal(t.Key(id), key) {
			return id, i
		}
	}
	return -1, i
}

// Key returns the key numbered id. The bytes are the table's, not the
// caller's, and the table never writes them again, after it grows too, so
// they may become a string in place (serde.Frozen).
func (t *ByteKeyTable) Key(id int32) []byte {
	s := t.keys[id]
	return t.arena[s.off:s.end:s.end]
}

// Len returns how many keys the table holds.
func (t *ByteKeyTable) Len() int { return len(t.keys) }

// Cap returns how many keys the table holds before it next grows, which a
// vector by key number kept in step with it can size from.
func (t *ByteKeyTable) Cap() int { return cap(t.keys) }
