package experiments

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/workload"
)

// E8PageRank measures strong scaling of BSP PageRank on a fixed R-MAT
// graph as worker parallelism grows.
func E8PageRank(p Params) *Table {
	scale := pick(p.Scale, 12, 16)
	t := &Table{
		ID:    "E8",
		Title: "PageRank strong scaling on an R-MAT graph",
		Note:  fmt.Sprintf("2^%d vertices, edge factor 8, 10 iterations", scale),
		Cols:  []string{"workers", "wall", "speedup", "efficiency", "messages"},
	}
	t.Cols = []string{"workers", "partitioning", "wall", "modeled-speedup", "efficiency", "oracle"}
	t.Note += "; speedup is TotalWork/CriticalWork — the partitioning-limited " +
		"parallelism the BSP schedule admits (host-core independent); the " +
		"contiguous-vs-hashed ablation shows hub skew binding the critical path" +
		"; oracle: each run's ranks against the sequential check.ReferencePageRank, 1e-9 relative"
	const damping, iters = 0.85, 10
	n := int64(1) << scale
	edges := workload.RMAT(scale, 8, 21)
	g := graph.FromEdges(n, edges)
	for _, part := range []graph.Partitioning{graph.Contiguous, graph.Hashed} {
		for _, workers := range []int{1, 2, 4, 8} {
			start := time.Now()
			res := g.PageRankWith(damping, iters, graph.RunConfig{Workers: workers, Partitioning: part})
			wall := time.Since(start)
			speedup := res.ModeledSpeedup()
			diff := t.recordCheck(check.DiffPageRank(fmt.Sprintf("E8/%s-%dw", part, workers), res.State, n, edges, damping, iters, 1e-9))
			t.AddRow(
				fmt.Sprintf("%d", workers),
				part.String(),
				wall.Round(time.Millisecond).String(),
				fmt.Sprintf("%.2fx", speedup),
				fmt.Sprintf("%.2f", speedup/float64(workers)),
				verdictCell(diff),
			)
		}
	}
	return t
}

// E10ParamServer compares BSP/ASP/SSP time-to-quality under transient
// stragglers.
func E10ParamServer(p Params) *Table {
	t := &Table{
		ID:    "E10",
		Title: "Parameter server: BSP vs ASP vs SSP under transient stragglers",
		Note: "logistic regression, 8 workers, 10% of steps hiccup for 1ms" +
			"; oracle: each mode's final loss and accuracy against the lockstep " +
			"check.ReferenceSGD, per mode at least twice the widest gap in 100 runs per scale, plain and -race " +
			"(runs differ from it by up to 0.0003 loss and 0.0013 accuracy in bsp, 0.0004 and 0.0028 in ssp, " +
			"0.0052 and 0.0098 in asp); asp keeps 0.05, as its spread leaves no 2x margin below the 0.0015 " +
			"loss that dropping one worker's gradient costs",
		Cols: []string{"mode", "wall", "sync-wait", "final-loss", "accuracy", "oracle"},
	}
	n := pick(p.Scale, 4_000, 20_000)
	data := workload.Logistic(n, 20, 5)
	base := ml.Config{
		Workers:         8,
		Steps:           pick(p.Scale, 60, 150),
		BatchSize:       64,
		LearningRate:    0.2,
		Staleness:       4,
		StragglerWorker: -1,
		HiccupProb:      0.1,
		HiccupDelay:     time.Millisecond,
		Seed:            3,
	}
	for _, m := range []struct {
		mode      ml.Mode
		loss, acc float64 // tolerances
	}{{ml.BSP, 0.0006, 0.003}, {ml.ASP, 0.05, 0.05}, {ml.SSP, 0.0009, 0.006}} {
		cfg, mode := base, m.mode
		cfg.Mode = mode
		res := ml.Train(data, cfg)
		diff := t.recordCheck(check.DiffSGD("E10/"+mode.String(), res, data, cfg, m.loss, m.acc))
		t.AddRow(mode.String(),
			res.WallTime.Round(time.Millisecond).String(),
			res.WaitTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.4f", res.FinalLoss),
			fmt.Sprintf("%.3f", res.Accuracy),
			verdictCell(diff))
	}
	return t
}
