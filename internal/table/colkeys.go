package table

import (
	"math"

	"repro/internal/group"
	"repro/internal/serde"
)

// colKeys numbers one key column's values (a broadcast join's, a one-column
// GroupBy's map side) by type: an Int64 by its bits, a Float64 by
// math.Float64bits (the zeros two keys, each NaN payload one, as encoded;
// == merges the zeros and never finds a NaN), a String as itself, uncopied.
type colKeys struct {
	typ  Type
	nums group.KeyTable[uint64] // Int64 and Float64 keys
	strs group.KeyTable[string]
}

// id returns the number of v's value i and whether it is new, giving it
// the next number if it is; find returns the number without adding it,
// and any number of goroutines may call it at once.
func (c *colKeys) id(v *Vector, i int) (int32, bool) {
	switch c.typ {
	case Int64:
		return c.nums.ID(uint64(v.Ints[i]))
	case Float64:
		return c.nums.ID(math.Float64bits(v.Floats[i]))
	}
	return c.strs.ID(v.Strings[i])
}

func (c *colKeys) find(v *Vector, i int) (int32, bool) {
	switch c.typ {
	case Int64:
		return c.nums.Find(uint64(v.Ints[i]))
	case Float64:
		return c.nums.Find(math.Float64bits(v.Floats[i]))
	}
	return c.strs.Find(v.Strings[i])
}

// room is how many keys c holds before it grows, for vectors by key number.
func (c *colKeys) room() int { return cap(c.nums.Keys()) + cap(c.strs.Keys()) }

// sortable encodes each key once, as appendSortableKey does, into one
// buffer, and returns shuffle.KeyOrder's arguments: key count and accessor.
// Strings keep an end offset per key; a number's key is 8 bytes wide, so
// key g sits at buf[8g:].
func (c *colKeys) sortable() (int, func(g int32) []byte) {
	if c.typ == String {
		strs, size := c.strs.Keys(), 0
		for _, s := range strs {
			size += len(s) + 2 // the terminator; a 0x00 byte takes one more
		}
		buf, offs := make([]byte, 0, size), make([]int, len(strs)+1)
		for g, s := range strs {
			buf = serde.AppendSortableStringKey(buf, s)
			offs[g+1] = len(buf)
		}
		return len(strs), func(g int32) []byte { return buf[offs[g]:offs[g+1]:offs[g+1]] }
	}
	nums := c.nums.Keys()
	buf := make([]byte, 0, 8*len(nums))
	for _, k := range nums {
		if c.typ == Int64 {
			buf = append(buf, serde.SortableInt64Key(int64(k))...)
		} else {
			buf = append(buf, serde.SortableFloat64Key(math.Float64frombits(k))...)
		}
	}
	return len(nums), func(g int32) []byte { return buf[8*g : 8*g+8 : 8*g+8] }
}
