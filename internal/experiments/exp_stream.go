package experiments

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/stream"
)

// E7Stream sweeps offered load against the streaming pipeline's measured
// capacity and reports sojourn latency with and without backpressure —
// the load/latency hockey stick, and how bounded buffers tame its tail.
// No run advances the watermark and Close fires every window, so each
// run's panes are a function of the events it sent: the oracle folds those
// events into their panes directly and diffs the run against them.
func E7Stream(p Params) *Table {
	t := &Table{
		ID:    "E7",
		Title: "Streaming: sojourn latency vs offered load, with/without backpressure",
		Note:  "1-second tumbling windows; load as a fraction of measured capacity",
		Cols:  []string{"load", "buffer", "p50", "p99", "max-queue", "dropped-late", "oracle"},
	}
	const workers = 2
	const spin = 1500
	events := pick(p.Scale, 20_000, 100_000)
	sent := make([]stream.Event, events)
	for i := range sent {
		sent[i] = stream.Event{Key: fmt.Sprintf("k%d", i%64), Value: 1, EventTime: time.Duration(i) * time.Millisecond}
	}

	// Calibrate: drive one pipeline flat-out to find capacity.
	capacity := measureCapacity(workers, spin, sent[:events/4])

	for _, frac := range []float64{0.5, 0.8, 1.1} {
		rate := frac * capacity
		for _, buffer := range []int{256, 0} {
			bufName := "bounded"
			if buffer == 0 {
				bufName = "unbounded"
			}
			p := stream.New(stream.Config{Workers: workers, Buffer: buffer, Window: time.Second, WorkSpin: spin})
			maxQueue := 0
			start := time.Now()
			for i, ev := range sent {
				// Pace to the offered rate.
				target := time.Duration(float64(i) / rate * float64(time.Second))
				for time.Since(start) < target {
				}
				if err := p.Send(ev); err != nil {
					panic(fmt.Sprintf("E7: send event %d: %v", i, err))
				}
				if i%500 == 0 {
					maxQueue = max(maxQueue, p.QueueDepth())
				}
			}
			d := t.recordCheck(check.DiffWindows(fmt.Sprintf("E7/%.1fx/%s", frac, bufName), p.Close(), sent, time.Second, 0))
			h := p.Reg.Histogram("sojourn_ns")
			t.AddRow(
				fmt.Sprintf("%.1fx", frac),
				bufName,
				time.Duration(h.Quantile(0.5)).Round(time.Microsecond).String(),
				time.Duration(h.Quantile(0.99)).Round(time.Microsecond).String(),
				fmt.Sprintf("%d", maxQueue),
				fmt.Sprintf("%d", p.Reg.Counter("late_dropped").Value()),
				verdictCell(d),
			)
		}
	}
	return t
}

// measureCapacity drives the pipeline with events as fast as possible and
// returns the sustained events/sec.
func measureCapacity(workers, spin int, events []stream.Event) float64 {
	p := stream.New(stream.Config{Workers: workers, Buffer: 256, Window: time.Second, WorkSpin: spin})
	start := time.Now()
	for _, ev := range events {
		if err := p.Send(ev); err != nil {
			panic(fmt.Sprintf("E7: calibration send: %v", err))
		}
	}
	p.Close()
	return float64(len(events)) / time.Since(start).Seconds()
}
