package compress

import (
	"bytes"
	"errors"
	"testing"
)

// Fuzz targets: every codec must round-trip arbitrary payloads exactly,
// and every decoder must reject (never panic on) arbitrary compressed
// input.

func fuzzCodecs() []Codec {
	return []Codec{None{}, RLE{}, LZ{}, Flate{}}
}

func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello hello hello hello"))
	f.Add(bytes.Repeat([]byte{0xAB}, 300))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252, 253, 254, 255})
	// LZ.Decompress copies a match in one step when it lies wholly behind
	// the output (offset >= length) and in doubling steps when it overlaps.
	f.Add([]byte("far match|0123456789|far match")) // offset 21, length 9
	f.Add([]byte("abcabcabcabcabcabcabcabcabcabc")) // offset 3, length 27
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range fuzzCodecs() {
			enc := c.Compress(data)
			dec, err := c.Decompress(enc)
			if err != nil {
				t.Fatalf("%s: decompress own output: %v", c.Name(), err)
			}
			if !bytes.Equal(dec, data) {
				t.Fatalf("%s: round trip changed %d bytes to %d", c.Name(), len(data), len(dec))
			}
			if _, ok := c.(LZ); ok && cap(dec) != len(dec) {
				t.Fatalf("lz: decoded %d bytes into a %d-byte buffer, want it sized exactly", len(dec), cap(dec))
			}
			if _, ok := c.(LZ); ok && cap(enc) != len(enc) {
				t.Fatalf("lz: encoded %d bytes into a %d-byte block, want it sized exactly", len(enc), cap(enc))
			}
		}
	})
}

func FuzzDecompress(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x10})
	f.Add(LZ{}.Compress([]byte("seed the corpus with a valid stream")))
	f.Add(RLE{}.Compress(bytes.Repeat([]byte("ab"), 64)))
	f.Add([]byte{0x02, 'a', 'b', 'c', 0x05})            // ends in a bare literal tag
	f.Add([]byte{0x03, 'a', 'b', 'c', 'd', 0x85, 0x04}) // a match tag with one offset byte
	f.Fuzz(func(t *testing.T, data []byte) {
		// The LZ pre-scan sizes no more than its tokens could produce: at
		// most lzMaxMatch bytes from every 3-byte match.
		if n, err := lzDecodedLen(data); err == nil && 3*n > lzMaxMatch*len(data) {
			t.Fatalf("lz: %d input bytes sized as %d output bytes", len(data), n)
		}
		for _, c := range fuzzCodecs() {
			out, err := c.Decompress(data)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: decode error is not ErrCorrupt: %v", c.Name(), err)
				}
				continue
			}
			// Whatever decoded must survive this codec's own round trip.
			redec, err := c.Decompress(c.Compress(out))
			if err != nil {
				t.Fatalf("%s: re-decode: %v", c.Name(), err)
			}
			if !bytes.Equal(redec, out) {
				t.Fatalf("%s: recompression changed the payload", c.Name())
			}
		}
	})
}
