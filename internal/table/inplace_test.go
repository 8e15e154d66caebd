package table

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// inPlaceRows is round's input to both sides of a join and to the sort:
// string columns whose bytes name the round, so rounds never repeat them.
func inPlaceRows(round, n, keys int, side string) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{fmt.Sprintf("k%02d/r%d", i%keys, round), fmt.Sprintf("%s-%03d/r%d", side, i, round), int64(i)}
	}
	return rows
}

// renderRows prints each row on its own and sorts the lines, so two
// relations compare as multisets.
func renderRows(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	slices.Sort(out)
	return out
}

// TestInPlaceStringsStayPut: a sorted shuffle (OrderByCols) and a shuffle
// join decode their string columns in place, as their reduce partitions'
// bytes. The rows one job collected must still read as its input says after
// twenty more jobs on the same engine, with a collection between each,
// under both codecs.
func TestInPlaceStringsStayPut(t *testing.T) {
	schema := Schema{Cols: []Col{{Name: "k", Type: String}, {Name: "s", Type: String}, {Name: "n", Type: Int64}}}
	for _, codec := range []compress.Codec{compress.None{}, compress.LZ{}} {
		t.Run(codec.Name(), func(t *testing.T) {
			fab := netsim.NewFabric(topology.TwoTier(2, 2, 2), netsim.RDMA40G)
			eng := core.NewEngine(core.Config{Cluster: cluster.New(cluster.Config{Fabric: fab, SlotsPerNode: 2}), Codec: codec})
			sites := []struct {
				name string
				run  func(round int) (*Table, error)
				want func(round int) []Row
			}{
				{"OrderByCols", func(round int) (*Table, error) {
					return mustTable(t, eng, schema, inPlaceRows(round, 200, 17, "row"), 3).OrderByCols([]string{"k", "s"}, []bool{false, true}, 3)
				}, func(round int) []Row { return inPlaceRows(round, 200, 17, "row") }},
				{"HashJoin", func(round int) (*Table, error) {
					left := mustTable(t, eng, schema, inPlaceRows(round, 120, 13, "left"), 3)
					return left.HashJoin(mustTable(t, eng, schema, inPlaceRows(round, 30, 19, "right"), 2), "k", "k", 3)
				}, func(round int) []Row {
					var out []Row
					for _, l := range inPlaceRows(round, 120, 13, "left") {
						for _, r := range inPlaceRows(round, 30, 19, "right") {
							if l[0] == r[0] {
								out = append(out, append(slices.Clone(l), r...))
							}
						}
					}
					return out
				}},
			}
			for _, site := range sites {
				collect := func(round int) []Row {
					t.Helper()
					tb, err := site.run(round)
					if err != nil {
						t.Fatalf("%s round %d: %v", site.name, round, err)
					}
					rows, err := tb.Collect()
					if err != nil {
						t.Fatalf("%s round %d: %v", site.name, round, err)
					}
					return rows
				}
				kept := collect(0)
				for round := 1; round <= 20; round++ {
					runtime.GC()
					if !slices.Equal(renderRows(collect(round)), renderRows(site.want(round))) {
						t.Fatalf("%s round %d: output differs from its input's", site.name, round)
					}
				}
				runtime.GC()
				if !slices.Equal(renderRows(kept), renderRows(site.want(0))) {
					t.Errorf("%s: rows kept from the first job changed after 20 more", site.name)
				}
			}
		})
	}
}
