package experiments

import (
	"fmt"
	"time"

	"repro/internal/stream"
)

// E7Stream sweeps offered load against the streaming pipeline's measured
// capacity and reports sojourn latency with and without backpressure —
// the load/latency hockey stick, and how bounded buffers tame its tail.
func E7Stream(p Params) *Table {
	t := &Table{
		ID:    "E7",
		Title: "Streaming: sojourn latency vs offered load, with/without backpressure",
		Note:  "1-second tumbling windows; load as a fraction of measured capacity",
		Cols:  []string{"load", "buffer", "p50", "p99", "max-queue", "dropped-late"},
	}
	const workers = 2
	const spin = 1500
	events := pick(p.Scale, 20_000, 100_000)

	// Calibrate: drive one pipeline flat-out to find capacity.
	capacity := measureCapacity(workers, spin, events/4)

	for _, frac := range []float64{0.5, 0.8, 1.1} {
		rate := frac * capacity
		for _, buffer := range []int{256, 0} {
			bufName := "bounded"
			if buffer == 0 {
				bufName = "unbounded"
			}
			p := stream.New(stream.Config{
				Workers:  workers,
				Buffer:   buffer,
				Window:   time.Second,
				WorkSpin: spin,
			})
			maxQueue := 0
			start := time.Now()
			for i := 0; i < events; i++ {
				// Pace to the offered rate.
				target := time.Duration(float64(i) / rate * float64(time.Second))
				for time.Since(start) < target {
				}
				_ = p.Send(stream.Event{
					Key:       fmt.Sprintf("k%d", i%64),
					Value:     1,
					EventTime: time.Duration(i) * time.Millisecond,
				})
				if i%500 == 0 {
					if d := p.QueueDepth(); d > maxQueue {
						maxQueue = d
					}
				}
			}
			p.Close()
			h := p.Reg.Histogram("sojourn_ns")
			t.AddRow(
				fmt.Sprintf("%.1fx", frac),
				bufName,
				time.Duration(h.Quantile(0.5)).Round(time.Microsecond).String(),
				time.Duration(h.Quantile(0.99)).Round(time.Microsecond).String(),
				fmt.Sprintf("%d", maxQueue),
				fmt.Sprintf("%d", p.Reg.Counter("late_dropped").Value()),
			)
		}
	}
	return t
}

// measureCapacity drives the pipeline as fast as possible and returns the
// sustained events/sec.
func measureCapacity(workers, spin, events int) float64 {
	p := stream.New(stream.Config{
		Workers:  workers,
		Buffer:   256,
		Window:   time.Second,
		WorkSpin: spin,
	})
	start := time.Now()
	for i := 0; i < events; i++ {
		_ = p.Send(stream.Event{
			Key:       fmt.Sprintf("k%d", i%64),
			Value:     1,
			EventTime: time.Duration(i) * time.Millisecond,
		})
	}
	p.Close()
	return float64(events) / time.Since(start).Seconds()
}
