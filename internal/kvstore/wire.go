// Wire encoding for the sharded data plane's replicated commands.
// Commands and responses are byte slices (the ha.StateMachine contract),
// encoded big-endian with length-prefixed strings and a sticky-error
// decoder, mirroring the envelope idiom in internal/ha. Every command is
// applied on three replicas, so encodings must be deterministic: maps
// are always flattened in sorted-key order before encoding.
package kvstore

import (
	"cmp"
	"encoding/binary"
	"slices"
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

func wAppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func wAppendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

func wAppendStr(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func wAppendBlob(b, p []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

func wAppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// wdec is a sticky-error decoder: after the first short read every
// subsequent accessor returns a zero value, so callers check err once.
type wdec struct {
	buf []byte
	err bool
}

func (d *wdec) u8() byte {
	if d.err || len(d.buf) < 1 {
		d.err = true
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *wdec) boolv() bool { return d.u8() == 1 }

func (d *wdec) u32() uint32 {
	if d.err || len(d.buf) < 4 {
		d.err = true
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *wdec) u64() uint64 {
	if d.err || len(d.buf) < 8 {
		d.err = true
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *wdec) str() string { return string(d.blob()) }

// list reads past a counted list of blobs, or of writes (key, del, val
// each). It returns the count and a decoder at the first element: once
// err is known to be clear, copies of that walk the list in place.
func (d *wdec) list(writes bool) (int, wdec) {
	n, first := int(d.u32()), *d
	for i := 0; i < n && !d.err; i++ {
		d.blob()
		if writes {
			d.u8()
			d.blob()
		}
	}
	return n, first
}

func (d *wdec) blob() []byte {
	n := int(d.u32())
	if d.err || len(d.buf) < n {
		d.err = true
		return nil
	}
	v := d.buf[:n:n]
	d.buf = d.buf[n:]
	return v
}
