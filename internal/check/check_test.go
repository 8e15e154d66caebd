package check

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/rng"
)

func TestDiffMultisetOK(t *testing.T) {
	d := DiffMultiset("m", []int64{3, 1, 2}, []int64{1, 2, 3}, intString)
	if !d.OK {
		t.Fatalf("order must not matter: %s", d)
	}
	if d.Compared != 3 {
		t.Fatalf("Compared = %d, want 3", d.Compared)
	}
	if !strings.Contains(d.String(), "ok (3 compared)") {
		t.Fatalf("String() = %q", d.String())
	}
}

func TestDiffMultisetMismatch(t *testing.T) {
	d := DiffMultiset("m", []int64{1, 1, 2}, []int64{1, 2, 2}, intString)
	if d.OK {
		t.Fatal("multiplicity mismatch not detected")
	}
	if len(d.Details) == 0 || !strings.Contains(d.String(), "MISMATCH") {
		t.Fatalf("details missing: %s", d)
	}
}

func TestDiffMultisetLength(t *testing.T) {
	d := DiffMultiset("m", []int64{1}, []int64{1, 2}, intString)
	if d.OK {
		t.Fatal("length mismatch not detected")
	}
	if !strings.Contains(d.Details[0], "length 1 vs 2") {
		t.Fatalf("expected length detail first, got %v", d.Details)
	}
}

func TestDiffMultisetDetailCap(t *testing.T) {
	var got, want []int64
	for i := int64(0); i < 50; i++ {
		got = append(got, i)
		want = append(want, i+100)
	}
	d := DiffMultiset("m", got, want, intString)
	if d.OK {
		t.Fatal("expected mismatch")
	}
	if len(d.Details) > maxDetails+1 {
		t.Fatalf("details unbounded: %d entries", len(d.Details))
	}
	if !strings.Contains(d.Details[len(d.Details)-1], "more") {
		t.Fatalf("expected truncation marker, got %v", d.Details)
	}
}

func TestDiffOrdered(t *testing.T) {
	enc := func(s string) string { return s }
	if d := DiffOrdered("o", []string{"a", "b"}, []string{"a", "b"}, enc); !d.OK {
		t.Fatalf("equal slices: %s", d)
	}
	if d := DiffOrdered("o", []string{"b", "a"}, []string{"a", "b"}, enc); d.OK {
		t.Fatal("order must matter")
	}
	if d := DiffOrdered("o", []string{"a"}, []string{"a", "b"}, enc); d.OK {
		t.Fatal("length mismatch not detected")
	}
}

func TestDiffOrderedDetailCap(t *testing.T) {
	var got, want []int64
	for i := int64(0); i < 50; i++ {
		got = append(got, i)
		want = append(want, i+1)
	}
	d := DiffOrdered("o", got, want, intString)
	if d.OK || len(d.Details) > maxDetails+1 {
		t.Fatalf("OK=%v details=%d", d.OK, len(d.Details))
	}
}

// TestDiffDetailsBounded: mismatched elements of 200-odd bytes are quoted
// by their first maxQuote bytes and a count of the rest, so a failing
// comparison prints a bounded verdict that still names the first element
// that differs.
func TestDiffDetailsBounded(t *testing.T) {
	gen := rng.New(1)
	type pair struct{ k, v []byte }
	random := func() pair {
		p := pair{make([]byte, 100), make([]byte, 100)}
		gen.Bytes(p.k)
		gen.Bytes(p.v)
		return p
	}
	enc := func(p pair) string { return string(p.k) + "=" + string(p.v) }
	var got, want []pair
	for range 20 {
		got, want = append(got, random()), append(want, random())
	}
	cut := func(p pair) string { return strconv.Quote(enc(p)[:maxQuote]) + "+169B" }
	ordered := DiffOrdered("o", got, want, enc)
	if first := ordered.Details[0]; first != "[0]: "+cut(got[0])+" vs "+cut(want[0]) {
		t.Errorf("first ordered detail %q does not name element 0", first)
	}
	multiset := DiffMultiset("m", got, want, enc)
	named := false
	for _, p := range append(got, want...) {
		named = named || strings.HasPrefix(multiset.Details[0], cut(p)+": got ")
	}
	if !named {
		t.Errorf("first multiset detail %q names no element", multiset.Details[0])
	}
	for _, d := range []Diff{ordered, multiset} {
		if d.OK {
			t.Fatalf("%s: differing elements compared equal", d.Name)
		}
		// A quoted byte takes at most 4 characters.
		if n := len(d.String()); n > (maxDetails+1)*(2*(4*maxQuote+8)+24) {
			t.Errorf("%s: %d-character verdict", d.Name, n)
		}
	}
}

func TestDiffFloats(t *testing.T) {
	if d := DiffFloats("f", []float64{1.0, 2.0}, []float64{1.0 + 1e-12, 2.0}, 1e-9); !d.OK {
		t.Fatalf("within tolerance: %s", d)
	}
	// Relative scaling: 1000 vs 1000.5 is within 1e-3 relative.
	if d := DiffFloats("f", []float64{1000.5}, []float64{1000}, 1e-3); !d.OK {
		t.Fatalf("relative tolerance not applied: %s", d)
	}
	if d := DiffFloats("f", []float64{1.1}, []float64{1.0}, 1e-3); d.OK {
		t.Fatal("out-of-tolerance diff not detected")
	}
	if d := DiffFloats("f", []float64{1}, []float64{1, 2}, 1e-3); d.OK {
		t.Fatal("length mismatch not detected")
	}
	var got, want []float64
	for i := 0; i < 50; i++ {
		got = append(got, float64(i))
		want = append(want, float64(i)+10)
	}
	if d := DiffFloats("f", got, want, 1e-6); d.OK || len(d.Details) > maxDetails+1 {
		t.Fatal("detail cap not applied")
	}
}

func TestHarness(t *testing.T) {
	h := NewHarness()
	if !h.OK() || h.Len() != 0 {
		t.Fatal("empty harness must be OK")
	}
	if !strings.Contains(h.Summary(), "all ok") {
		t.Fatalf("Summary() = %q", h.Summary())
	}
	h.Record(Diff{Name: "a", OK: true, Compared: 3})
	d := h.Record(Diff{Name: "b", OK: false, Details: []string{"boom"}})
	if d.Name != "b" {
		t.Fatal("Record must return its argument")
	}
	if h.OK() || h.Len() != 2 {
		t.Fatalf("OK=%v Len=%d", h.OK(), h.Len())
	}
	fails := h.Failures()
	if len(fails) != 1 || fails[0].Name != "b" {
		t.Fatalf("Failures() = %v", fails)
	}
	if s := h.Summary(); !strings.Contains(s, "1/2") || !strings.Contains(s, "boom") {
		t.Fatalf("Summary() = %q", s)
	}
}

func TestHarnessConcurrent(t *testing.T) {
	h := NewHarness()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				h.Record(Diff{Name: "x", OK: true})
			}
		}()
	}
	wg.Wait()
	if h.Len() != 1600 || !h.OK() {
		t.Fatalf("Len=%d OK=%v", h.Len(), h.OK())
	}
}
