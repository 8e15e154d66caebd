package perf

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// encoded runs a family and returns its result with the file bytes.
func encoded(t *testing.T, fam string, seed uint64) (*Result, []byte) {
	t.Helper()
	r, err := Run(fam, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return r, b
}

func TestRunUnknownFamily(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown family must error")
	}
}

// The gate. Every committed BENCH_<family>.json is the seed-42 run of its
// family, byte for byte: a change to a virtual cost, a checksum, a counter
// or the determinism of any subsystem a family drives fails here, and the
// report names the fields that moved. If the move is intended, explain it
// in the PR, run scripts/bench.sh and commit the regenerated files.
func TestCommittedBaselines(t *testing.T) {
	for _, fam := range Families() {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join("..", "..", Filename(fam))
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cur, got := encoded(t, fam, 42)
			if bytes.Equal(got, want) {
				return
			}
			base, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			rep := Diff(base, cur)
			if rep.OK() {
				t.Fatalf("%s holds the right values in another layout; regenerate it with scripts/bench.sh", Filename(fam))
			}
			t.Fatalf("%s is not what the code generates:\n%s", Filename(fam), rep)
		})
	}
}

// Every family is seed-deterministic in full: two runs with the same seed
// encode to the same bytes — params, shape, metrics and windows alike —
// at any GOMAXPROCS (scripts/flaky.sh runs this at -cpu 1,2,4).
func TestFamiliesShapeDeterminism(t *testing.T) {
	for _, fam := range Families() {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			t.Parallel()
			a, ab := encoded(t, fam, 7)
			b, bb := encoded(t, fam, 7)
			if !bytes.Equal(ab, bb) {
				t.Fatalf("same seed, different bytes:\n%s", Diff(a, b))
			}
		})
	}
}

// Different seeds must actually change the workload — otherwise the
// checksums are not pinning anything.
func TestSeedChangesShape(t *testing.T) {
	a, _ := encoded(t, "kv", 7)
	b, _ := encoded(t, "kv", 8)
	if a.Shape["read_checksum"] == b.Shape["read_checksum"] {
		t.Fatal("different seeds produced identical read checksums")
	}
}

// The kv family windows by accumulated virtual latency, so the full
// trajectory reproduces exactly and the differ, which walks every field
// of every window, agrees.
func TestKVTrajectoryFullyDeterministic(t *testing.T) {
	a, _ := encoded(t, "kv", 3)
	b, _ := encoded(t, "kv", 3)
	if len(a.Windows) == 0 || int64(len(a.Windows)) != a.Shape["windows"] {
		t.Fatalf("kv has %d windows, shape says %d", len(a.Windows), a.Shape["windows"])
	}
	if len(a.Metrics) != 13 {
		t.Fatalf("kv reports %d metrics, want 13: %v", len(a.Metrics), a.Metrics)
	}
	rep := Diff(a, b)
	if !rep.OK() {
		t.Fatalf("kv windows and metrics are virtual-time derived and must match exactly:\n%s", rep)
	}
	if rep.Checked < 9*len(a.Windows) {
		t.Fatalf("differ checked %d fields, fewer than the %d windows' own", rep.Checked, len(a.Windows))
	}
}

func TestResultRoundTrip(t *testing.T) {
	r, _ := encoded(t, "kv", 5)
	dir := t.TempDir()
	path, err := r.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_kv.json" {
		t.Fatalf("path = %s", path)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip changed the result:\n%s", Diff(r, got))
	}
}

func TestLoadRejectsWrongSchema(t *testing.T) {
	r, _ := encoded(t, "kv", 5)
	r.Schema = SchemaVersion + 10
	dir := t.TempDir()
	path, err := r.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("wrong schema must be rejected at load")
	}
}

func TestEncodeStable(t *testing.T) {
	r, a := encoded(t, "kv", 5)
	b, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("Encode must be byte-stable for the same Result")
	}
}

// Arbitrary bytes never panic the BENCH reader, and a file it accepts
// re-encodes to a fixed point: encode(decode(x)) decodes and encodes to
// itself.
func FuzzLoad(f *testing.F) {
	for _, fam := range []string{"shuffle", "avail"} {
		b, err := os.ReadFile(filepath.Join("..", "..", Filename(fam)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"schema":1,"family":"x","params":null,"shape":{"n":-0},"metrics":{"m":1e-7}}`))
	f.Add([]byte(`{"schema":2,"family":"x"}`))
	f.Add([]byte(`{"schema":1,"windows":[{"per_sec":1e999}]}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decode(data)
		if err != nil {
			return
		}
		once, err := r.Encode()
		if err != nil {
			t.Fatalf("accepted file does not encode: %v", err)
		}
		r2, err := decode(once)
		if err != nil {
			t.Fatalf("encoded file is rejected: %v\n%s", err, once)
		}
		twice, err := r2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("not a fixed point:\n%s\nvs\n%s", once, twice)
		}
	})
}
