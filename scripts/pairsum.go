//go:build ignore

// Command pairsum summarizes the alternated pairs scripts/pair.sh ran: for
// every workload and metric, each side's median and quartiles, how many
// pairs the head won (ties count for neither), and whether that is a gain:
// the head wins at least nine tenths of the pairs and the medians differ
// by more than the distance between the base's quartiles. An end-to-end
// metric whose head median is worse than the base's by more than the
// benchmark's bound is marked as over it, and one whose base runs spread
// wider than that bound, unless every head run beats every base run, as
// unresolved: its pairs cannot tell a change of the bound's size from
// noise. Directions and bounds come from BENCHMARK.json.
//
//	go run scripts/pairsum.go <run dir>
//
// The run dir holds one directory per workload, each with base-NN.json and
// head-NN.json, the one-line results of bench/run.sh.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// result is the one-line JSON a single-workload bench run prints last.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/pairsum.go <run dir>")
		os.Exit(2)
	}
	defs, err := readDefs("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "pairsum:", err)
		os.Exit(1)
	}
	dirs, err := filepath.Glob(filepath.Join(os.Args[1], "*", "base-*.json"))
	if err != nil || len(dirs) == 0 {
		fmt.Fprintf(os.Stderr, "pairsum: no base-*.json under %s/*/\n", os.Args[1])
		os.Exit(1)
	}
	seen := map[string]bool{}
	for _, f := range dirs {
		dir := filepath.Dir(f)
		if seen[dir] {
			continue
		}
		seen[dir] = true
		if err := summarize(dir, defs); err != nil {
			fmt.Fprintln(os.Stderr, "pairsum:", err)
			os.Exit(1)
		}
	}
}

func readDefs(path string) (map[string]metricDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	defs := map[string]metricDef{}
	for _, d := range append(decl.EndToEnd, decl.PerLayer...) {
		defs[d.Name] = d
	}
	return defs, nil
}

// readSide reads every <side>-NN.json in dir, in pair order.
func readSide(dir, side string) ([]result, error) {
	files, err := filepath.Glob(filepath.Join(dir, side+"-*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	out := make([]result, len(files))
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &out[i]); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	return out, nil
}

func summarize(dir string, defs map[string]metricDef) error {
	base, err := readSide(dir, "base")
	if err != nil {
		return err
	}
	head, err := readSide(dir, "head")
	if err != nil {
		return err
	}
	n := min(len(base), len(head))
	if n == 0 {
		return fmt.Errorf("%s: no complete pair", dir)
	}
	base, head = base[:n], head[:n]
	fmt.Printf("== %s: %d pairs; failed operations base %d, head %d\n", filepath.Base(dir), n, failed(base), failed(head))
	fmt.Printf("%-34s %30s %30s %9s %6s  %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "wins", "verdict")
	var names []string
	for name := range base[0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		def, ok := defs[name]
		if !ok {
			def = metricDef{Name: name, Better: "lower"}
		}
		b, h := values(base, name), values(head, name)
		wins := 0
		for i := range b {
			if better(def, h[i], b[i]) {
				wins++
			}
		}
		bq, hq := quartiles(b), quartiles(h)
		change := math.NaN()
		if bq[1] != 0 {
			change = 100 * (hq[1] - bq[1]) / math.Abs(bq[1])
		}
		fmt.Printf("%-34s %30s %30s %+8.2f%% %3d/%-2d  %s\n", name, fmtQ(bq), fmtQ(hq), change, wins, n, verdict(def, b, h, wins))
	}
	return nil
}

func failed(rs []result) int64 {
	var f int64
	for _, r := range rs {
		f += r.Failed
	}
	return f
}

func values(rs []result, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// better reports whether a beats b in def's direction.
func better(def metricDef, a, b float64) bool {
	if def.Better == "higher" {
		return a > b
	}
	return a < b
}

// quartiles returns the first quartile, the median and the third quartile,
// interpolating between order statistics.
func quartiles(v []float64) [3]float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}

// verdict applies the gain rule to the head's runs h against the base's
// runs b and, for a metric with a bound, the regression rule: the head's
// median no worse than the base's by more than the bound, which the pairs
// resolve only when the base's range is within it or every head run beats
// every base run.
func verdict(def metricDef, b, h []float64, wins int) string {
	var out []string
	bq, hq := quartiles(b), quartiles(h)
	gap, iqr := math.Abs(hq[1]-bq[1]), bq[2]-bq[0]
	if 10*wins >= 9*len(b) && gap > iqr && better(def, hq[1], bq[1]) {
		out = append(out, "gain")
	}
	if def.Bound > 0 && bq[1] != 0 {
		worse := (hq[1] - bq[1]) / math.Abs(bq[1])
		if def.Better == "higher" {
			worse = -worse
		}
		// The worst head run against the best base run, in def's direction.
		worstHead, bestBase := slices.Max(h), slices.Min(b)
		if def.Better == "higher" {
			worstHead, bestBase = slices.Min(h), slices.Max(b)
		}
		switch {
		case worse > def.Bound:
			out = append(out, fmt.Sprintf("OVER BOUND (%.0f%%)", 100*def.Bound))
		case (slices.Max(b)-slices.Min(b))/math.Abs(bq[1]) > def.Bound && !better(def, worstHead, bestBase):
			out = append(out, fmt.Sprintf("unresolved (base range over %.0f%%)", 100*def.Bound))
		}
	}
	return strings.Join(out, ", ")
}
