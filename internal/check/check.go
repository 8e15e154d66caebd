// Package check is the correctness backbone of the repo: sequential
// single-node reference oracles for every distributed engine (dataflow,
// shuffle, streaming windows and sessions, PageRank, parameter-server
// SGD) and two history oracles for the KV stores — linearizability per
// key for the quorum ring (CheckOps) and strict serializability for the
// sharded store (CheckTxns). Both decide through one witness search and
// capture their histories on one wave driver. Chaos sweeps and
// experiments end with an oracle diff recorded in a Harness, so "the
// run survived faults" always means "the run survived faults AND
// produced provably correct output". See DESIGN.md "Correctness
// checking".
package check

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// floatString and intString render numbers for encode functions with no
// formatting ambiguity (shortest round-trippable float form).
func floatString(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
func intString(n int64) string     { return strconv.FormatInt(n, 10) }

// Diff is the outcome of one oracle comparison.
type Diff struct {
	// Name identifies the comparison ("eft/crash/seed-7", "e5-linearizable").
	Name string
	// OK reports whether observed output matched the reference.
	OK bool
	// Compared counts the elements compared.
	Compared int
	// Details holds a bounded sample of mismatches (empty when OK).
	Details []string
}

// String renders a one-line verdict.
func (d Diff) String() string {
	if d.OK {
		return fmt.Sprintf("%s: ok (%d compared)", d.Name, d.Compared)
	}
	return fmt.Sprintf("%s: MISMATCH (%d compared): %s", d.Name, d.Compared, strings.Join(d.Details, "; "))
}

// maxDetails bounds how many mismatches a Diff records.
const maxDetails = 8

// maxQuote bounds how many bytes of one element a mismatch detail quotes.
const maxQuote = 32

// quote renders an encoded element for a mismatch detail: %q of at most
// its first maxQuote bytes, then how many bytes were cut.
func quote(s string) string {
	if len(s) <= maxQuote {
		return strconv.Quote(s)
	}
	return fmt.Sprintf("%q+%dB", s[:maxQuote], len(s)-maxQuote)
}

// DiffMultiset compares got against want as multisets under encode: the
// same elements with the same multiplicities, in any order. This is the
// right comparison for unsorted shuffle output, where the engine's
// record order depends on block fetch order.
func DiffMultiset[T any](name string, got, want []T, encode func(T) string) Diff {
	d := Diff{Name: name, OK: true, Compared: len(got)}
	counts := make(map[string]int, len(want))
	for _, w := range want {
		counts[encode(w)]++
	}
	for _, g := range got {
		counts[encode(g)]--
	}
	var bad []string
	for k, c := range counts {
		if c != 0 {
			bad = append(bad, fmt.Sprintf("%s: got %+d vs reference", quote(k), -c))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		if len(got) != len(want) {
			bad = append([]string{fmt.Sprintf("length %d vs %d", len(got), len(want))}, bad...)
		}
		if len(bad) > maxDetails {
			bad = append(bad[:maxDetails], fmt.Sprintf("... %d more", len(bad)-maxDetails))
		}
		d.OK = false
		d.Details = bad
	}
	return d
}

// DiffOrdered compares got against want element by element under encode
// — for outputs with a guaranteed deterministic order (sorted shuffle
// partitions, stream pane lists).
func DiffOrdered[T any](name string, got, want []T, encode func(T) string) Diff {
	d := Diff{Name: name, OK: true, Compared: len(got)}
	if len(got) != len(want) {
		d.OK = false
		d.Details = append(d.Details, fmt.Sprintf("length %d vs %d", len(got), len(want)))
	}
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		g, w := encode(got[i]), encode(want[i])
		if g != w {
			d.OK = false
			d.Details = append(d.Details, fmt.Sprintf("[%d]: %s vs %s", i, quote(g), quote(w)))
			if len(d.Details) >= maxDetails {
				d.Details = append(d.Details, "...")
				break
			}
		}
	}
	return d
}

// DiffFloats compares two float vectors within a relative tolerance
// (plus the same value as an absolute floor near zero) — for oracles
// whose reference accumulates floating point in a different order than
// the parallel engine (PageRank, SGD).
func DiffFloats(name string, got, want []float64, tol float64) Diff {
	d := Diff{Name: name, OK: true, Compared: len(got)}
	if len(got) != len(want) {
		d.OK = false
		d.Details = append(d.Details, fmt.Sprintf("length %d vs %d", len(got), len(want)))
		return d
	}
	for i := range got {
		diff := got[i] - want[i]
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if w := want[i]; w > 1 || w < -1 {
			if w < 0 {
				w = -w
			}
			scale = w
		}
		if diff > tol*scale {
			d.OK = false
			d.Details = append(d.Details, fmt.Sprintf("[%d]: %g vs %g", i, got[i], want[i]))
			if len(d.Details) >= maxDetails {
				d.Details = append(d.Details, "...")
				break
			}
		}
	}
	return d
}

// Harness accumulates oracle verdicts across a sweep. Safe for
// concurrent use; chaos runs record into one shared harness and the
// driver fails the sweep if any comparison mismatched.
type Harness struct {
	mu    sync.Mutex
	diffs []Diff
}

// NewHarness returns an empty harness.
func NewHarness() *Harness { return &Harness{} }

// Record adds one verdict and returns it unchanged (for chaining).
func (h *Harness) Record(d Diff) Diff {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.diffs = append(h.diffs, d)
	return d
}

// Len returns how many verdicts have been recorded.
func (h *Harness) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.diffs)
}

// OK reports whether every recorded comparison matched.
func (h *Harness) OK() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, d := range h.diffs {
		if !d.OK {
			return false
		}
	}
	return true
}

// Failures returns the mismatched verdicts.
func (h *Harness) Failures() []Diff {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []Diff
	for _, d := range h.diffs {
		if !d.OK {
			out = append(out, d)
		}
	}
	return out
}

// Summary renders a multi-line report: one line per failure, or a
// single all-clear line.
func (h *Harness) Summary() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	failed := 0
	var b strings.Builder
	for _, d := range h.diffs {
		if !d.OK {
			failed++
			fmt.Fprintf(&b, "%s\n", d)
		}
	}
	if failed == 0 {
		return fmt.Sprintf("check: %d oracle comparisons, all ok", len(h.diffs))
	}
	return fmt.Sprintf("check: %d/%d oracle comparisons FAILED\n%s", failed, len(h.diffs), b.String())
}
