// Wire encoding for the sharded data plane's replicated commands.
// Commands and responses are byte slices (the ha.StateMachine contract)
// in the replicated machines' one wire format, written with
// binary.BigEndian and ha's appenders and read with an ha.Decoder. Every
// command is applied on three replicas, so encodings must be
// deterministic: maps are always flattened in sorted-key order before
// encoding.
package kvstore

import (
	"cmp"
	"slices"

	"repro/internal/ha"
)

// sortedKeys flattens a map's key set the one way encodings may.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// list reads past a counted list of blobs, or of writes (key, del, val
// each). It returns the count and a decoder at the first element: once
// d's error is known to be clear, copies of that walk the list in place.
func list(d *ha.Decoder, writes bool) (int, ha.Decoder) {
	n, first := int(d.U32()), *d
	for i := 0; i < n && d.Err() == nil; i++ {
		d.Bytes()
		if writes {
			d.U8()
			d.Bytes()
		}
	}
	return n, first
}
