// Package compress provides the block compressors the shuffle and DFS can
// route data through: a byte-level RLE codec, an LZ77-style codec with a
// hash-table matcher (Snappy-class speed/ratio trade-off), a DEFLATE
// wrapper, and a passthrough. All share one interface so experiments can
// ablate compression choice (experiment E2).
package compress

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// ErrCorrupt is returned when compressed input fails validation.
var ErrCorrupt = errors.New("compress: corrupt input")

// Codec compresses and decompresses byte blocks. Implementations are
// stateless and safe for concurrent use.
type Codec interface {
	// Name identifies the codec in reports.
	Name() string
	// Compress returns the compressed form of src in memory of its own,
	// which the caller then owns: Compress keeps no reference to it or to
	// src, so the caller may reuse src once it returns.
	Compress(src []byte) []byte
	// Decompress inverts Compress, into memory the caller owns.
	Decompress(src []byte) ([]byte, error)
}

// None is the passthrough codec.
type None struct{}

// Name implements Codec.
func (None) Name() string { return "none" }

// Compress implements Codec.
func (None) Compress(src []byte) []byte {
	out := make([]byte, len(src))
	copy(out, src)
	return out
}

// Decompress implements Codec.
func (None) Decompress(src []byte) ([]byte, error) {
	out := make([]byte, len(src))
	copy(out, src)
	return out, nil
}

// RLE is byte-level run-length encoding: (count, byte) pairs for runs of 4+,
// literal blocks otherwise. Effective only on long byte runs (zero pages,
// padded records); it is the cheap baseline in the codec ablation.
type RLE struct{}

// Name implements Codec.
func (RLE) Name() string { return "rle" }

// Compress implements Codec. Format: sequence of blocks, each headed by a
// tag byte: 0x00-0x7f = literal run of tag+1 bytes follows; 0x80-0xff = the
// next byte repeats (tag-0x80)+4 times.
func (RLE) Compress(src []byte) []byte {
	out := make([]byte, 0, len(src)/2+16)
	litStart := 0
	i := 0
	for i < len(src) {
		j := i + 1
		for j < len(src) && src[j] == src[i] && j-i < 127+4 {
			j++
		}
		if run := j - i; run >= 4 {
			out = appendLiterals(out, src[litStart:i])
			out = append(out, byte(0x80+run-4), src[i])
			litStart = j
		}
		i = j
	}
	return appendLiterals(out, src[litStart:])
}

// appendLiterals appends lit as literal blocks of at most 128 bytes, each
// headed by its length-minus-one tag — the literal token RLE and LZ share.
func appendLiterals(out, lit []byte) []byte {
	for len(lit) > 0 {
		n := min(len(lit), 128)
		out = append(out, byte(n-1))
		out = append(out, lit[:n]...)
		lit = lit[n:]
	}
	return out
}

// Decompress implements Codec.
func (RLE) Decompress(src []byte) ([]byte, error) {
	out := make([]byte, 0, len(src)*2)
	i := 0
	for i < len(src) {
		tag := src[i]
		i++
		if tag < 0x80 {
			n := int(tag) + 1
			if i+n > len(src) {
				return nil, fmt.Errorf("%w: literal overruns input", ErrCorrupt)
			}
			out = append(out, src[i:i+n]...)
			i += n
		} else {
			if i >= len(src) {
				return nil, fmt.Errorf("%w: run missing byte", ErrCorrupt)
			}
			n := int(tag-0x80) + 4
			b := src[i]
			i++
			for k := 0; k < n; k++ {
				out = append(out, b)
			}
		}
	}
	return out, nil
}

// LZ is a greedy LZ77 codec with a 16-bit offset window and a hash-table
// matcher over 4-byte sequences — the Snappy-class point in the ablation:
// much faster than DEFLATE, weaker ratio.
type LZ struct{}

// Name implements Codec.
func (LZ) Name() string { return "lz" }

const (
	lzMinMatch = 4
	lzMaxMatch = 0x7f + lzMinMatch
	lzWindow   = 1 << 16
	lzHashBits = 14
)

func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzHashBits)
}

func load32(b []byte, i int) uint32 {
	return uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
}

// Compress implements Codec. Format: tag byte per token. Tag < 0x80:
// literal run of tag+1 bytes. Tag >= 0x80: match of (tag-0x80)+4 bytes at
// 2-byte little-endian offset back.
//
// The tokens go to a pooled scratch buffer, grown once to the all-literal
// length no output exceeds (a match covers at least 4 bytes in 3, which
// pays for the one literal tag it may add by splitting a run); the block
// returned is an exact-length copy, so a kept block holds no spare room.
func (LZ) Compress(src []byte) []byte {
	scratch := lzScratch.Get().(*[]byte)
	defer lzScratch.Put(scratch)
	*scratch = lzEncode(slices.Grow((*scratch)[:0], len(src)+(len(src)+127)/128), src)
	return append(make([]byte, 0, len(*scratch)), *scratch...)
}

// lzScratch holds LZ.Compress's token buffers between calls.
var lzScratch = sync.Pool{New: func() any { return new([]byte) }}

// lzEncode appends src's tokens to out.
func lzEncode(out, src []byte) []byte {
	// Each slot holds the last sequence with its hash and where it began
	// (position+1, 0 = none), so a candidate is checked without going back
	// to src.
	var table [1 << lzHashBits]struct{ seq, pos uint32 }
	litStart := 0
	i := 0
	for i+lzMinMatch <= len(src) {
		cur := load32(src, i)
		slot := &table[lzHash(cur)]
		cand := int(slot.pos) - 1
		hit := slot.seq == cur
		slot.seq, slot.pos = cur, uint32(i+1)
		if !hit || cand < 0 || i-cand >= lzWindow {
			i++
			continue
		}
		// Extend the match.
		length := lzMinMatch
		for i+length < len(src) && length < lzMaxMatch && src[cand+length] == src[i+length] {
			length++
		}
		out = appendLiterals(out, src[litStart:i])
		off := i - cand
		out = append(out, byte(0x80+length-lzMinMatch), byte(off), byte(off>>8))
		i += length
		litStart = i
	}
	return appendLiterals(out, src[litStart:])
}

// Decompress implements Codec, into an output sized by lzDecodedLen.
func (LZ) Decompress(src []byte) ([]byte, error) {
	size, err := lzDecodedLen(src)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, size)
	i := 0
	for i < len(src) {
		tag := src[i]
		i++
		if tag < 0x80 {
			n := int(tag) + 1
			out = append(out, src[i:i+n]...)
			i += n
			continue
		}
		length := int(tag-0x80) + lzMinMatch
		off := int(src[i]) | int(src[i+1])<<8
		i += 2
		if off == 0 || off > len(out) {
			return nil, fmt.Errorf("%w: match offset %d out of range", ErrCorrupt, off)
		}
		// A match that overlaps its own output repeats with period off, so
		// everything from pos on is a valid source: each pass copies all
		// that is there, doubling the next one.
		for pos := len(out) - off; length > 0; {
			n := min(length, len(out)-pos)
			out = append(out, out[pos:pos+n]...)
			length -= n
		}
	}
	return out, nil
}

// lzDecodedLen returns how many bytes src's tokens decode to, from the tags
// alone, or ErrCorrupt if a token runs past the end of src.
func lzDecodedLen(src []byte) (int, error) {
	size := 0
	for i := 0; i < len(src); {
		n, step := int(src[i])+1, int(src[i])+2 // a literal: its tag and n bytes
		if src[i] >= 0x80 {
			n, step = int(src[i]-0x80)+lzMinMatch, 3 // a match: its tag and offset
		}
		if size, i = size+n, i+step; i > len(src) {
			return 0, fmt.Errorf("%w: token overruns input", ErrCorrupt)
		}
	}
	return size, nil
}

// Flate wraps compress/flate at the given level — the "heavy" point in the
// codec ablation (best ratio, highest CPU).
type Flate struct {
	// Level is the flate compression level; 0 means flate.DefaultCompression.
	Level int
}

// Name implements Codec.
func (f Flate) Name() string { return "flate" }

// Compress implements Codec.
func (f Flate) Compress(src []byte) []byte {
	level := f.Level
	if level == 0 {
		level = flate.DefaultCompression
	}
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		panic(err) // only on invalid level, a programming error
	}
	if _, err := w.Write(src); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// Decompress implements Codec.
func (f Flate) Decompress(src []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(src))
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return out, nil
}

// ByName returns the codec registered under name, for CLI flags.
func ByName(name string) (Codec, error) {
	switch name {
	case "none", "":
		return None{}, nil
	case "rle":
		return RLE{}, nil
	case "lz":
		return LZ{}, nil
	case "flate":
		return Flate{}, nil
	default:
		return nil, fmt.Errorf("compress: unknown codec %q", name)
	}
}
