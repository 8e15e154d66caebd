// Package perf generates the repository's reference transcripts: it runs
// named workload families (shuffle matching-records in the ShuffleBench
// style, a checkpointed stream, a YCSB-ish KV mix with overload and 2PC
// segments, terasort, the SQL star suite, a gray-failure availability
// sweep) at fixed sizes under one seed and reduces each to a
// BENCH_<family>.json file. Everything in a file is a pure function of the
// seed — counts, checksums, and the latencies and windows of the families
// whose clock is the simulator's — so the committed files are compared
// byte for byte by a tier-1 test, and a difference is always a change in
// what the code does, never in how fast the machine ran it. Nothing here
// reads the wall clock: timed numbers come from bench/ (bash bench/run.sh).
package perf

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// SchemaVersion identifies the BENCH_*.json layout. Bump on any
// incompatible change; the differ refuses to compare across versions.
const SchemaVersion = 1

// Window is one window of a virtual-time trajectory. StartNs is the
// window's offset from the run epoch on the simulator's clock; latency
// fields are simulated nanoseconds.
type Window struct {
	StartNs int64   `json:"start_ns"`
	Count   int64   `json:"count"`
	PerSec  float64 `json:"per_sec"`
	MeanNs  float64 `json:"mean_ns"`
	P50Ns   int64   `json:"p50_ns"`
	P95Ns   int64   `json:"p95_ns"`
	P99Ns   int64   `json:"p99_ns"`
	P999Ns  int64   `json:"p999_ns"`
	MaxNs   int64   `json:"max_ns"`
}

// Result is one run of one family, the unit BENCH_<family>.json stores.
type Result struct {
	Schema int    `json:"schema"`
	Family string `json:"family"`
	// Params pin the workload configuration (sizes, seed, transport).
	Params map[string]string `json:"params"`
	// Windows is the per-window series of the families that run on virtual
	// time (kv, avail); the others only count their rounds in Shape.
	Windows []Window `json:"windows,omitempty"`
	// Shape holds the workload's invariants: record counts, checksums,
	// committed checkpoints, window counts.
	Shape map[string]int64 `json:"shape"`
	// Metrics holds the cost model's summary numbers: simulated latency
	// percentiles, virtual throughput, mean simulated fetch time.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Filename returns the canonical file name for a family.
func Filename(family string) string {
	return fmt.Sprintf("BENCH_%s.json", family)
}

// Encode renders the result as stable, indented JSON (struct field
// order is fixed; map keys are sorted by encoding/json).
func (r *Result) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the result to dir/BENCH_<family>.json and returns
// the path.
func (r *Result) WriteFile(dir string) (string, error) {
	b, err := r.Encode()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, Filename(r.Family))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Load reads a result file and validates its schema version.
func Load(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := decode(b)
	if err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	return r, nil
}

// decode parses and validates the bytes of a result file.
func decode(b []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("schema %d, this build speaks %d", r.Schema, SchemaVersion)
	}
	if r.Family == "" {
		return nil, errors.New("missing family")
	}
	return &r, nil
}
