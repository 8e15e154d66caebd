// Streaming: per-user click counts over 1-second tumbling windows with
// event-time watermarks, allowed lateness, and backpressure, fed by a
// skewed clickstream with out-of-order arrivals.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"time"

	hpbdc "repro"
	"repro/internal/stream"
	"repro/internal/workload"
)

func main() {
	ctx := hpbdc.New(hpbdc.Config{Racks: 1, NodesPerRack: 4})
	p := ctx.NewStream(stream.Config{
		Workers:         4,
		Buffer:          1024, // bounded: backpressure on overload
		Window:          time.Second,
		AllowedLateness: 500 * time.Millisecond,
	})

	clicks := workload.Clickstream(50_000, 2_000, 100, 10_000, 200*time.Millisecond, 9)
	var watermark time.Duration
	for i, c := range clicks {
		if err := p.Send(stream.Event{Key: c.User, Value: 1, EventTime: c.EventTime}); err != nil {
			log.Fatal(err)
		}
		// Source-driven watermark: trail max event time by 300 ms.
		if i%2000 == 1999 && c.EventTime-300*time.Millisecond > watermark {
			watermark = c.EventTime - 300*time.Millisecond
			if err := p.Advance(watermark); err != nil {
				log.Fatal(err)
			}
		}
	}
	results := p.Close()

	// Aggregate: busiest window and overall stats.
	perWindow := map[time.Duration]int64{}
	for _, r := range results {
		perWindow[r.WindowStart] += r.Count
	}
	var busiest time.Duration
	var peak int64
	var total int64
	for w, n := range perWindow {
		total += n
		if n > peak {
			peak = n
			busiest = w
		}
	}
	sojourn := p.Reg.Histogram("sojourn_ns")
	fmt.Printf("windows fired: %d panes over %d windows, %d events counted\n",
		len(results), len(perWindow), total)
	fmt.Printf("busiest window: [%v, %v) with %d clicks\n",
		busiest, busiest+time.Second, peak)
	fmt.Printf("late events dropped: %d\n", p.Reg.Counter("late_dropped").Value())
	// sojourn_ns is a 1-in-64 systematic sample per worker lane.
	fmt.Printf("sojourn latency (%d sampled events): p50 %v, p99 %v\n", sojourn.Count(),
		time.Duration(sojourn.Quantile(0.5)), time.Duration(sojourn.Quantile(0.99)))
}
