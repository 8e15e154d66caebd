package ml

import (
	"testing"
	"time"

	"repro/internal/workload"
)

func dataset() workload.LogisticData {
	return workload.Logistic(4000, 10, 42)
}

func TestBSPConverges(t *testing.T) {
	data := dataset()
	res := Train(data, Config{Workers: 4, Mode: BSP, Steps: 150, Seed: 1})
	if res.Accuracy < 0.8 {
		t.Fatalf("BSP accuracy = %.3f, want >= 0.8", res.Accuracy)
	}
	initial := Loss(data, make([]float64, 10))
	if res.FinalLoss >= initial {
		t.Fatalf("loss did not decrease: %v -> %v", initial, res.FinalLoss)
	}
}

func TestAllModesConverge(t *testing.T) {
	data := dataset()
	for _, mode := range []Mode{BSP, ASP, SSP} {
		res := Train(data, Config{Workers: 4, Mode: mode, Steps: 150, Seed: 2})
		if res.Accuracy < 0.75 {
			t.Fatalf("%v accuracy = %.3f", mode, res.Accuracy)
		}
	}
}

func TestLossCurveDecreases(t *testing.T) {
	data := dataset()
	res := Train(data, Config{Workers: 2, Mode: BSP, Steps: 200, Seed: 3})
	if len(res.LossCurve) != 200 {
		t.Fatalf("loss curve has %d points, want one per global round (200)", len(res.LossCurve))
	}
	first := res.LossCurve[0]
	last := res.LossCurve[len(res.LossCurve)-1]
	if last >= first {
		t.Fatalf("loss curve not decreasing: %v -> %v", first, last)
	}
}

func TestHiccupsSlowBSPMoreThanASP(t *testing.T) {
	// Transient stragglers: every worker hiccups on a random 15% of steps.
	// BSP pays the max hiccup each round; ASP pays only each worker's own.
	data := workload.Logistic(1000, 8, 7)
	cfg := Config{
		Workers:         4,
		Steps:           50,
		StragglerWorker: -1,
		HiccupProb:      0.15,
		HiccupDelay:     2 * time.Millisecond,
		Seed:            4,
	}
	cfg.Mode = BSP
	bsp := Train(data, cfg)
	cfg.Mode = ASP
	asp := Train(data, cfg)
	if float64(bsp.WallTime) < 1.3*float64(asp.WallTime) {
		t.Fatalf("BSP %v not clearly slower than ASP %v under hiccups",
			bsp.WallTime, asp.WallTime)
	}
	if bsp.WaitTime <= asp.WaitTime {
		t.Fatalf("BSP wait %v <= ASP wait %v", bsp.WaitTime, asp.WaitTime)
	}
}

func TestSSPBetweenBSPAndASPUnderHiccups(t *testing.T) {
	data := workload.Logistic(1000, 8, 9)
	base := Config{
		Workers:         4,
		Steps:           50,
		Staleness:       5,
		StragglerWorker: -1,
		HiccupProb:      0.15,
		HiccupDelay:     2 * time.Millisecond,
		Seed:            5,
	}
	times := map[Mode]time.Duration{}
	for _, m := range []Mode{BSP, ASP, SSP} {
		cfg := base
		cfg.Mode = m
		times[m] = Train(data, cfg).WallTime
	}
	if times[SSP] >= times[BSP] {
		t.Fatalf("SSP %v not faster than BSP %v", times[SSP], times[BSP])
	}
	// SSP should land much closer to ASP than to BSP.
	if times[SSP] > 2*times[ASP] {
		t.Fatalf("SSP %v far slower than ASP %v", times[SSP], times[ASP])
	}
}

func TestSSPStalenessBoundHolds(t *testing.T) {
	// Indirect check: with staleness 1 and a straggler, total wait time is
	// substantial; with huge staleness it is ~zero.
	data := workload.Logistic(500, 6, 11)
	base := Config{
		Workers:         3,
		Mode:            SSP,
		Steps:           30,
		StragglerWorker: 0,
		StragglerDelay:  time.Millisecond,
		Seed:            6,
	}
	tight := base
	tight.Staleness = 1
	loose := base
	loose.Staleness = 1 << 20
	rTight := Train(data, tight)
	rLoose := Train(data, loose)
	if rTight.WaitTime <= rLoose.WaitTime {
		t.Fatalf("tight staleness wait %v <= loose wait %v", rTight.WaitTime, rLoose.WaitTime)
	}
}

func TestSingleWorkerMatchesSequentialSGD(t *testing.T) {
	data := workload.Logistic(1000, 6, 13)
	res := Train(data, Config{Workers: 1, Mode: BSP, Steps: 300, Seed: 7})
	if res.Accuracy < 0.8 {
		t.Fatalf("single worker accuracy %.3f", res.Accuracy)
	}
}

func TestLossAndAccuracyHelpers(t *testing.T) {
	data := workload.Logistic(500, 5, 17)
	zero := make([]float64, 5)
	lossZero := Loss(data, zero)
	// log(2) ~ 0.693 for an uninformative model.
	if lossZero < 0.6 || lossZero > 0.8 {
		t.Fatalf("zero-weight loss = %v, want ~0.69", lossZero)
	}
	lossTrue := Loss(data, data.TrueWeights)
	if lossTrue >= lossZero {
		t.Fatalf("true weights loss %v not below zero-weight loss %v", lossTrue, lossZero)
	}
	if acc := Accuracy(data, data.TrueWeights); acc < 0.8 {
		t.Fatalf("true weights accuracy %.3f", acc)
	}
}

func BenchmarkTrainBSP(b *testing.B) {
	data := workload.Logistic(2000, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Train(data, Config{Workers: 4, Mode: BSP, Steps: 50, Seed: uint64(i)})
	}
}
