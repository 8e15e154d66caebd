package perf

import (
	"path/filepath"
	"reflect"
	"testing"
)

// quick returns CI-sized options with a fixed seed.
func quick(seed uint64) Options { return Options{Quick: true, Seed: seed} }

func TestRunUnknownFamily(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown family must error")
	}
}

// Every family must be seed-deterministic in Shape: two runs with the
// same options produce byte-identical Shape maps and the same window
// count, even though wall-clock Metrics differ. This is the invariant
// the differ's exact-match side leans on.
func TestFamiliesShapeDeterminism(t *testing.T) {
	for _, fam := range Families() {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			t.Parallel()
			a, err := Run(fam, quick(7))
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(fam, quick(7))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Shape, b.Shape) {
				t.Fatalf("same seed, different shape:\n  a=%v\n  b=%v", a.Shape, b.Shape)
			}
			if len(a.Windows) != len(b.Windows) {
				t.Fatalf("window counts differ: %d vs %d", len(a.Windows), len(b.Windows))
			}
			if !reflect.DeepEqual(a.Params, b.Params) {
				t.Fatalf("params differ: %v vs %v", a.Params, b.Params)
			}
			// And the differ agrees the two runs are comparable. Only its
			// shape findings count here: the wall-clock Metrics of two
			// back-to-back parallel runs differ by more than any threshold
			// on a loaded box, and comparing those is scripts/bench.sh's job.
			rep := Diff(a, b, DiffOptions{})
			for _, f := range rep.Findings {
				if f.Kind == KindShape {
					t.Fatalf("self-diff failed:\n%s", rep)
				}
			}
		})
	}
}

// Different seeds must actually change the workload — otherwise the
// checksums are not pinning anything.
func TestSeedChangesShape(t *testing.T) {
	a, err := Run("kv", quick(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("kv", quick(8))
	if err != nil {
		t.Fatal(err)
	}
	if a.Shape["read_checksum"] == b.Shape["read_checksum"] {
		t.Fatal("different seeds produced identical read checksums")
	}
}

// The kv family windows by accumulated virtual latency, so the full
// trajectory — percentiles included — reproduces exactly.
func TestKVTrajectoryFullyDeterministic(t *testing.T) {
	a, err := Run("kv", quick(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("kv", quick(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Windows, b.Windows) {
		t.Fatalf("kv windows are virtual-time derived and must match exactly:\n  a=%v\n  b=%v",
			a.Windows, b.Windows)
	}
	for k := range a.Metrics {
		if k == "ops_per_sec" {
			continue // derived from virtual time too, but float division — compare raw
		}
		if a.Metrics[k] != b.Metrics[k] {
			t.Fatalf("kv metric %s differs: %v vs %v", k, a.Metrics[k], b.Metrics[k])
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	r, err := Run("kv", quick(5))
	if err != nil {
		t.Fatal(err)
	}
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
	if !reflect.DeepEqual(got.Shape, r.Shape) || !reflect.DeepEqual(got.Params, r.Params) {
		t.Fatal("round trip lost shape or params")
	}
	if rep := Diff(r, got, DiffOptions{}); !rep.OK() {
		t.Fatalf("round-tripped result must diff clean:\n%s", rep)
	}
}

func TestLoadRejectsWrongSchema(t *testing.T) {
	r, err := Run("kv", quick(5))
	if err != nil {
		t.Fatal(err)
	}
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
	r, err := Run("kv", quick(5))
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("Encode must be byte-stable for the same Result")
	}
}
