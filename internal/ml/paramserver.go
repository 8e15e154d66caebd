// Package ml implements data-parallel machine learning on a parameter
// server: workers pull the shared weight vector, compute minibatch
// gradients over their data shard, and push updates, under one of three
// consistency disciplines — BSP (lockstep barriers), ASP (fully
// asynchronous, Hogwild-style), and SSP (stale-synchronous: the fastest
// worker may lead the slowest by at most a bounded number of steps).
// Experiment E10 measures time-to-loss for the three modes with an
// injected straggler, reproducing the classic SSP result: near-ASP speed
// at near-BSP quality.
package ml

import (
	"math"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/workload"
)

// Mode selects the parameter-server consistency discipline.
type Mode int

// Consistency modes.
const (
	BSP Mode = iota // bulk-synchronous: staleness 0
	ASP             // asynchronous: unbounded staleness
	SSP             // stale-synchronous: staleness <= Config.Staleness
)

func (m Mode) String() string {
	switch m {
	case BSP:
		return "bsp"
	case ASP:
		return "asp"
	default:
		return "ssp"
	}
}

// Config configures a training run.
type Config struct {
	// Workers is the data-parallel width. Default 4.
	Workers int
	// Mode is the consistency discipline.
	Mode Mode
	// Staleness bounds the fast-slow worker gap under SSP. Default 3.
	Staleness int
	// LearningRate for SGD. Default 0.1.
	LearningRate float64
	// BatchSize per step. Default 32.
	BatchSize int
	// Steps is the per-worker step count. Default 100.
	Steps int
	// StragglerWorker, if >= 0, sleeps StragglerDelay every step — a
	// permanently slow machine.
	StragglerWorker int
	// StragglerDelay is the per-step slowdown of the straggler.
	StragglerDelay time.Duration
	// HiccupProb makes every worker sleep HiccupDelay on a random
	// fraction of its steps — the transient-straggler fault model of the
	// E10 experiment (all workers have the same expected speed, but BSP
	// pays the max of the hiccups each round).
	HiccupProb  float64
	HiccupDelay time.Duration
	// Seed drives batch sampling.
	Seed uint64
}

// Result summarizes a training run.
type Result struct {
	Weights   []float64
	FinalLoss float64
	Accuracy  float64
	// WallTime is the end-to-end duration; WaitTime sums the time workers
	// spent blocked on the staleness condition (the sync overhead BSP
	// pays under stragglers).
	WallTime time.Duration
	WaitTime time.Duration
	// LossCurve is the full-data loss after each global round (the
	// minimum worker clock advancing): one point per round.
	LossCurve []float64
}

// server is the shared parameter state plus the staleness clock.
type server struct {
	mu     sync.Mutex
	cond   *sync.Cond
	w      []float64
	clocks []int
	// rounds[r-1] is w as of global round r, the push that brought the
	// slowest worker's clock to r.
	rounds [][]float64
}

func newServer(dim, workers int) *server {
	s := &server{w: make([]float64, dim), clocks: make([]int, workers)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *server) minClock() int {
	min := s.clocks[0]
	for _, c := range s.clocks[1:] {
		if c < min {
			min = c
		}
	}
	return min
}

// waitForSlack blocks worker `me` until its lead over the slowest worker is
// within `staleness` steps. It returns the time spent waiting.
func (s *server) waitForSlack(me, staleness int) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	for s.clocks[me]-s.minClock() > staleness {
		s.cond.Wait()
	}
	return time.Since(start)
}

// pull snapshots the weights.
func (s *server) pull(dst []float64) {
	s.mu.Lock()
	copy(dst, s.w)
	s.mu.Unlock()
}

// push applies a gradient step and advances the worker's clock.
func (s *server) push(me int, grad []float64, lr float64) {
	s.mu.Lock()
	for i, g := range grad {
		s.w[i] -= lr * g
	}
	s.clocks[me]++
	if s.minClock() > len(s.rounds) {
		s.rounds = append(s.rounds, append([]float64(nil), s.w...))
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// Loss computes the mean log-loss of weights w on the dataset.
func Loss(data workload.LogisticData, w []float64) float64 {
	total := 0.0
	for i := range data.X {
		z := dot(data.X[i], w)
		p := sigmoid(z)
		// Clamp for numerical safety.
		if p < 1e-12 {
			p = 1e-12
		}
		if p > 1-1e-12 {
			p = 1 - 1e-12
		}
		if data.Y[i] > 0.5 {
			total += -math.Log(p)
		} else {
			total += -math.Log(1 - p)
		}
	}
	return total / float64(len(data.X))
}

// Accuracy computes the 0/1 accuracy of weights w on the dataset.
func Accuracy(data workload.LogisticData, w []float64) float64 {
	correct := 0
	for i := range data.X {
		pred := 0.0
		if dot(data.X[i], w) > 0 {
			pred = 1
		}
		if pred == data.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(data.X))
}

func dot(x, w []float64) float64 {
	s := 0.0
	for i := range x {
		s += x[i] * w[i]
	}
	return s
}

// Train runs data-parallel logistic regression SGD under cfg.
func Train(data workload.LogisticData, cfg Config) Result {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Staleness <= 0 {
		cfg.Staleness = 3
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 100
	}
	dim := len(data.TrueWeights)
	srv := newServer(dim, cfg.Workers)

	staleness := 0
	switch cfg.Mode {
	case ASP:
		staleness = math.MaxInt32
	case SSP:
		staleness = cfg.Staleness
	}

	// Shard data round-robin.
	shards := make([][]int, cfg.Workers)
	for i := range data.X {
		w := i % cfg.Workers
		shards[w] = append(shards[w], i)
	}

	start := time.Now()
	var wg sync.WaitGroup
	waits := make([]time.Duration, cfg.Workers)
	for me := 0; me < cfg.Workers; me++ {
		me := me
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.New(cfg.Seed + uint64(me)*7919)
			local := make([]float64, dim)
			grad := make([]float64, dim)
			shard := shards[me]
			for step := 0; step < cfg.Steps; step++ {
				waits[me] += srv.waitForSlack(me, staleness)
				if me == cfg.StragglerWorker && cfg.StragglerDelay > 0 {
					time.Sleep(cfg.StragglerDelay)
				}
				if cfg.HiccupProb > 0 && r.Float64() < cfg.HiccupProb {
					time.Sleep(cfg.HiccupDelay)
				}
				srv.pull(local)
				for i := range grad {
					grad[i] = 0
				}
				for b := 0; b < cfg.BatchSize; b++ {
					idx := shard[r.Intn(len(shard))]
					x, y := data.X[idx], data.Y[idx]
					err := sigmoid(dot(x, local)) - y
					for j := range grad {
						grad[j] += err * x[j]
					}
				}
				inv := 1 / float64(cfg.BatchSize)
				for j := range grad {
					grad[j] *= inv
				}
				srv.push(me, grad, cfg.LearningRate)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	final := append([]float64(nil), srv.w...)
	var totalWait time.Duration
	for _, w := range waits {
		totalWait += w
	}
	curve := make([]float64, len(srv.rounds))
	for i, w := range srv.rounds {
		curve[i] = Loss(data, w)
	}
	return Result{
		Weights:   final,
		FinalLoss: Loss(data, final),
		Accuracy:  Accuracy(data, final),
		WallTime:  wall,
		WaitTime:  totalWait,
		LossCurve: curve,
	}
}
