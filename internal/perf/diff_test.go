package perf

import (
	"strings"
	"testing"
)

func baseResult() *Result {
	return &Result{
		Schema: SchemaVersion,
		Family: "kv",
		Params: map[string]string{"ops": "1000", "seed": "42"},
		Shape:  map[string]int64{"ops": 1000, "checksum": 77},
		Metrics: map[string]float64{
			"ops_per_sec": 1000,
			"get_p99_ns":  5000,
		},
		Windows: []Window{{Count: 500}, {Count: 500}},
	}
}

func TestDiffIdenticalPasses(t *testing.T) {
	rep := Diff(baseResult(), baseResult())
	if !rep.OK() {
		t.Fatalf("identical results should pass:\n%s", rep)
	}
	if rep.Checked == 0 {
		t.Fatal("no fields checked")
	}
}

// The comparison is exact: any moved throughput is a finding, however
// small and in either direction.
func TestDiffFlagsThroughputRegression(t *testing.T) {
	for _, moved := range []float64{400, 999.999, 1000.001, 5000} {
		cur := baseResult()
		cur.Metrics["ops_per_sec"] = moved
		rep := Diff(baseResult(), cur)
		if len(rep.Findings) != 1 || rep.Findings[0].Field != "metrics.ops_per_sec" {
			t.Fatalf("ops_per_sec 1000 -> %v: findings = %+v", moved, rep.Findings)
		}
	}
}

func TestDiffFlagsLatencyRegression(t *testing.T) {
	for _, moved := range []float64{9000, 5001, 4999, 0} {
		cur := baseResult()
		cur.Metrics["get_p99_ns"] = moved
		rep := Diff(baseResult(), cur)
		if len(rep.Findings) != 1 || rep.Findings[0].Field != "metrics.get_p99_ns" {
			t.Fatalf("get_p99_ns 5000 -> %v: findings = %+v", moved, rep.Findings)
		}
	}
	// A zero baseline is compared like any other value.
	base := baseResult()
	base.Metrics["get_p99_ns"] = 0
	if rep := Diff(base, baseResult()); rep.OK() {
		t.Fatal("a latency appearing from a zero baseline must be flagged")
	}
}

func TestDiffShapeMismatchFails(t *testing.T) {
	cur := baseResult()
	cur.Shape["checksum"] = 78
	rep := Diff(baseResult(), cur)
	if rep.OK() {
		t.Fatal("shape mismatch must fail")
	}
	if rep.Findings[0].Field != "shape.checksum" {
		t.Fatalf("field = %q, want shape.checksum", rep.Findings[0].Field)
	}
}

func TestDiffParamMismatchFails(t *testing.T) {
	cur := baseResult()
	cur.Params["ops"] = "2000"
	rep := Diff(baseResult(), cur)
	if rep.OK() {
		t.Fatal("param mismatch must fail — different workloads are not comparable")
	}
	if !strings.Contains(rep.String(), "params.ops") {
		t.Fatalf("report missing params.ops:\n%s", rep)
	}
}

func TestDiffMissingAndExtraFields(t *testing.T) {
	cur := baseResult()
	delete(cur.Metrics, "get_p99_ns")
	cur.Metrics["brand_new_ns"] = 1
	rep := Diff(baseResult(), cur)
	if len(rep.Findings) != 2 || rep.Findings[0].Field != "metrics.get_p99_ns" ||
		rep.Findings[1].Field != "metrics.brand_new_ns" {
		t.Fatalf("findings = %+v, want missing + extra", rep.Findings)
	}
}

func TestDiffWindowCountMismatch(t *testing.T) {
	cur := baseResult()
	cur.Windows = cur.Windows[:1]
	rep := Diff(baseResult(), cur)
	if rep.OK() {
		t.Fatal("window count change must fail")
	}
	// And so does any one field of any one window.
	cur = baseResult()
	cur.Windows[1].P99Ns++
	rep = Diff(baseResult(), cur)
	if len(rep.Findings) != 1 || rep.Findings[0].Field != "windows[1].p99_ns" {
		t.Fatalf("findings = %+v, want windows[1].p99_ns", rep.Findings)
	}
}

func TestDiffSchemaMismatch(t *testing.T) {
	cur := baseResult()
	cur.Schema = SchemaVersion + 1
	if rep := Diff(baseResult(), cur); rep.OK() {
		t.Fatal("schema mismatch must fail")
	}
}
