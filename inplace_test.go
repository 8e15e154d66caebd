package hpbdc

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// inPlaceSite is one shuffle that decodes strings in place: run collects
// every string of its output, as handed out, and want lists what the input
// of that round says they are. Both are compared as multisets.
type inPlaceSite struct {
	name string
	run  func(c *Context, round int) ([]string, error)
	want func(round int) []string
}

// inPlaceInput is round's input: keys repeat, every value is distinct, and
// each string names its round so rounds never produce the same bytes.
func inPlaceInput(round int) (left, right []Pair[string, string]) {
	for i := range 240 {
		left = append(left, Pair[string, string]{fmt.Sprintf("key-%02d/r%d", i%23, round), fmt.Sprintf("left-%03d/r%d", i, round)})
	}
	for i := range 40 {
		right = append(right, Pair[string, string]{fmt.Sprintf("key-%02d/r%d", i%29, round), fmt.Sprintf("right-%03d/r%d", i, round)})
	}
	return left, right
}

// strs flattens pairs into their keys and values.
func strs(pairs []Pair[string, string]) []string {
	var out []string
	for _, p := range pairs {
		out = append(out, p.Key, p.Value)
	}
	return out
}

// distinctKeys returns the keys of pairs, each once.
func distinctKeys(pairs []Pair[string, string]) []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range pairs {
		if !seen[p.Key] {
			seen[p.Key] = true
			out = append(out, p.Key)
		}
	}
	return out
}

func inPlaceSites() []inPlaceSite {
	left := func(c *Context, round int) *Dataset[Pair[string, string]] {
		l, _ := inPlaceInput(round)
		return Parallelize(c, l, 3)
	}
	right := func(c *Context, round int) *Dataset[Pair[string, string]] {
		_, r := inPlaceInput(round)
		return Parallelize(c, r, 2)
	}
	return []inPlaceSite{
		{"SortByKey", func(c *Context, round int) ([]string, error) {
			sorted, err := SortByKey(left(c, round), StringCodec, StringCodec, 3, 16)
			if err != nil {
				return nil, err
			}
			got, err := sorted.Collect()
			return strs(got), err
		}, func(round int) []string { l, _ := inPlaceInput(round); return strs(l) }},
		{"GroupByKey", func(c *Context, round int) ([]string, error) {
			got, err := GroupByKey(left(c, round), StringCodec, StringCodec, 3).Collect()
			var out []string
			for _, g := range got {
				out = append(append(out, g.Key), g.Value...)
			}
			return out, err
		}, func(round int) []string {
			l, _ := inPlaceInput(round)
			out := distinctKeys(l)
			for _, p := range l {
				out = append(out, p.Value)
			}
			return out
		}},
		{"ReduceByKey", func(c *Context, round int) ([]string, error) {
			got, err := ReduceByKey(left(c, round), StringCodec, StringCodec, 3, func(a, b string) string { return max(a, b) }).Collect()
			return strs(got), err
		}, func(round int) []string {
			l, _ := inPlaceInput(round)
			best := map[string]string{}
			for _, p := range l {
				best[p.Key] = max(best[p.Key], p.Value)
			}
			var out []Pair[string, string]
			for _, k := range distinctKeys(l) {
				out = append(out, Pair[string, string]{k, best[k]})
			}
			return strs(out)
		}},
		{"Join", func(c *Context, round int) ([]string, error) {
			got, err := Join(left(c, round), right(c, round), StringCodec, StringCodec, StringCodec, 3).Collect()
			var out []string
			for _, p := range got {
				out = append(out, p.Key, p.Value.Left, p.Value.Right)
			}
			return out, err
		}, func(round int) []string {
			l, r := inPlaceInput(round)
			var out []string
			for _, a := range l {
				for _, b := range r {
					if a.Key == b.Key {
						out = append(out, a.Key, a.Value, b.Value)
					}
				}
			}
			return out
		}},
		{"Distinct", func(c *Context, round int) ([]string, error) {
			return Distinct(Keys(left(c, round)), StringCodec, 3).Collect()
		}, func(round int) []string { l, _ := inPlaceInput(round); return distinctKeys(l) }},
		{"Repartition", func(c *Context, round int) ([]string, error) {
			return Repartition(Values(left(c, round)), StringCodec, 4).Collect()
		}, func(round int) []string {
			l, _ := inPlaceInput(round)
			var out []string
			for _, p := range l {
				out = append(out, p.Value)
			}
			return out
		}},
	}
}

// sameStrings reports whether got and want hold the same strings, as
// multisets. It sorts clones: got's strings keep their bytes where they are.
func sameStrings(got, want []string) bool {
	got, want = slices.Clone(got), slices.Clone(want)
	slices.Sort(got)
	slices.Sort(want)
	return slices.Equal(got, want)
}

// TestInPlaceStringsStayPut: every shuffle that decodes strings in place
// hands out strings made of its reduce partition's bytes. The strings one
// job collected must still read as its input says after twenty more jobs
// on the same Context, with a collection between each, under both codecs:
// nothing the engine does later writes those bytes.
func TestInPlaceStringsStayPut(t *testing.T) {
	for _, codec := range []string{"none", "lz"} {
		t.Run(codec, func(t *testing.T) {
			c := New(Config{Racks: 1, NodesPerRack: 4, ShuffleCodec: codec, Seed: 5})
			for _, site := range inPlaceSites() {
				kept, err := site.run(c, 0)
				if err != nil {
					t.Fatalf("%s: %v", site.name, err)
				}
				for round := 1; round <= 20; round++ {
					runtime.GC()
					got, err := site.run(c, round)
					if err != nil {
						t.Fatalf("%s round %d: %v", site.name, round, err)
					}
					if !sameStrings(got, site.want(round)) {
						t.Fatalf("%s round %d: output differs from its input's", site.name, round)
					}
				}
				runtime.GC()
				if !sameStrings(kept, site.want(0)) {
					t.Errorf("%s: strings kept from the first job changed after 20 more", site.name)
				}
			}
		})
	}
}
