package compress

import (
	"bytes"
	"hash/fnv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func codecs() []Codec {
	return []Codec{None{}, RLE{}, LZ{}, Flate{}}
}

func TestRoundTripFixtures(t *testing.T) {
	fixtures := map[string][]byte{
		"empty":      {},
		"one":        {42},
		"zeros":      make([]byte, 10000),
		"text":       []byte(strings.Repeat("the quick brown fox jumps over the lazy dog ", 200)),
		"alternate":  []byte(strings.Repeat("ab", 5000)),
		"boundary":   bytes.Repeat([]byte{0xff}, 131),
		"short-runs": []byte("aaabbbcccdddeee"),
	}
	for _, c := range codecs() {
		for name, data := range fixtures {
			comp := c.Compress(data)
			got, err := c.Decompress(comp)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name(), name, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/%s: round trip mismatch (%d vs %d bytes)", c.Name(), name, len(got), len(data))
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	for _, c := range codecs() {
		c := c
		f := func(data []byte) bool {
			got, err := c.Decompress(c.Compress(data))
			return err == nil && bytes.Equal(got, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
	}
}

func TestRoundTripRandomLarge(t *testing.T) {
	r := rng.New(99)
	data := make([]byte, 1<<18)
	r.Bytes(data)
	for _, c := range codecs() {
		got, err := c.Decompress(c.Compress(data))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s failed on 256KB random data", c.Name())
		}
	}
}

func TestCompressibleDataShrinks(t *testing.T) {
	data := []byte(strings.Repeat("GET /index.html HTTP/1.1 host=example.com ", 1000))
	for _, c := range []Codec{RLE{}, LZ{}, Flate{}} {
		ratio := float64(len(c.Compress(data))) / float64(len(data))
		switch c.Name() {
		case "lz":
			if ratio > 0.2 {
				t.Fatalf("lz ratio on repetitive text = %.2f, want < 0.2", ratio)
			}
		case "flate":
			if ratio > 0.1 {
				t.Fatalf("flate ratio = %.2f, want < 0.1", ratio)
			}
		}
	}
}

func TestRLEShrinksRuns(t *testing.T) {
	data := make([]byte, 100000) // all zeros
	ratio := float64(len(RLE{}.Compress(data))) / float64(len(data))
	if ratio > 0.02 {
		t.Fatalf("RLE ratio on zeros = %.3f, want < 0.02", ratio)
	}
}

func TestOrderingFlateBeatsLZBeatsNone(t *testing.T) {
	data := []byte(strings.Repeat("user=1234 action=click page=/home referrer=/search ", 2000))
	n := len(None{}.Compress(data))
	l := len(LZ{}.Compress(data))
	f := len(Flate{}.Compress(data))
	if !(f < l && l < n) {
		t.Fatalf("ratio ordering violated: flate=%d lz=%d none=%d", f, l, n)
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	garbage := [][]byte{
		{0x7f},             // literal claims 128 bytes, none present
		{0x80},             // RLE run missing byte / LZ match missing offset
		{0x90, 0x00, 0x00}, // LZ match with offset 0
		{0x85, 0xff, 0xff}, // LZ match offset beyond output
	}
	for _, g := range garbage {
		if _, err := (LZ{}).Decompress(g); err == nil {
			t.Fatalf("LZ accepted garbage %v", g)
		}
	}
	if _, err := (RLE{}).Decompress([]byte{0x7f}); err == nil {
		t.Fatal("RLE accepted truncated literal")
	}
	if _, err := (Flate{}).Decompress([]byte{1, 2, 3}); err == nil {
		t.Fatal("flate accepted garbage")
	}
}

func TestLZOverlappingMatch(t *testing.T) {
	// "aaaa..." forces matches that overlap their own output.
	data := bytes.Repeat([]byte("a"), 1000)
	got, err := (LZ{}).Decompress((LZ{}).Compress(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatal("overlapping match round trip failed")
	}
}

// TestOutputBytesPinned holds the RLE and LZ token streams still: blocks
// on the wire, the BENCH shape sections and E2's wire-bytes columns all
// depend on the exact bytes, not just on a clean round trip.
func TestOutputBytesPinned(t *testing.T) {
	r := rng.New(11)
	mixed := make([]byte, 1<<16) // random bytes with phrases, runs and far repeats spliced in
	r.Bytes(mixed)
	for i := 0; i+200 < len(mixed); i += 100 + r.Intn(400) {
		switch r.Intn(3) {
		case 0:
			copy(mixed[i:], "a repeated phrase, longer than the 131-byte match cap when doubled up; a repeated phrase, longer than the 131-byte match cap when doubled up; ...")
		case 1:
			copy(mixed[i:], bytes.Repeat([]byte{byte(i)}, 3+r.Intn(150)))
		case 2:
			copy(mixed[i:], mixed[i/2:i/2+20])
		}
	}
	inputs := [][]byte{{}, {7}, []byte("abc"), []byte("abcabcabcabcabcabcab"), benchData()[:1<<15], make([]byte, 70000), mixed}
	want := map[string]uint64{"rle": 0x48c277b8fa2b1c60, "lz": 0x5fa6d2a7cdbffeb8}
	for _, c := range []Codec{RLE{}, LZ{}} {
		h := fnv.New64a()
		for _, in := range inputs {
			out := c.Compress(in)
			_, _ = h.Write([]byte{byte(len(out)), byte(len(out) >> 8), byte(len(out) >> 16)})
			_, _ = h.Write(out)
		}
		if got := h.Sum64(); got != want[c.Name()] {
			t.Errorf("%s output changed: digest %#x, want %#x", c.Name(), got, want[c.Name()])
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"none", "rle", "lz", "flate", ""} {
		if _, err := ByName(name); err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("zstd"); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func benchData() []byte {
	r := rng.New(7)
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	var sb strings.Builder
	for sb.Len() < 1<<20 {
		sb.WriteString(words[r.Intn(len(words))])
		sb.WriteByte(' ')
	}
	return []byte(sb.String())
}

func BenchmarkCompress(b *testing.B) {
	data := benchData()
	for _, c := range codecs() {
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				_ = c.Compress(data)
			}
		})
	}
}

func BenchmarkDecompress(b *testing.B) {
	data := benchData()
	for _, c := range codecs() {
		comp := c.Compress(data)
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := c.Decompress(comp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
