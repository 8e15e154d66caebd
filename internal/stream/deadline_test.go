package stream

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/admission"
)

// waitStreamGoroutines polls until the goroutine count falls back to the
// baseline — pipeline workers shut down asynchronously after Close, so a
// plain count right after an abort races the teardown.
func waitStreamGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), baseline)
}

func deadlineRunner(src Source) *Runner {
	return NewRunner(RunConfig{
		Pipeline:        Config{Workers: 4, Window: 200 * time.Millisecond},
		CheckpointEvery: 1000,
		WatermarkEvery:  100,
		WatermarkLag:    5 * time.Millisecond,
	}, src)
}

func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	a, err := deadlineRunner(NewGeneratorSource(5, 3000, 16, time.Millisecond, 4*time.Millisecond)).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := deadlineRunner(NewGeneratorSource(5, 3000, 16, time.Millisecond, 4*time.Millisecond)).RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("RunCtx(Background) diverged from Run: %d vs %d results", len(b), len(a))
	}
}

func TestRunCtxAbortsOnBudget(t *testing.T) {
	baseline := runtime.NumGoroutine()
	src := NewGeneratorSource(5, 6000, 16, time.Millisecond, 4*time.Millisecond)
	r := deadlineRunner(src)
	// 6000 events at 1ms/step run to ~6s of event time; a 1s budget must
	// cut the run short with the typed deadline error.
	res, err := r.RunCtx(admission.WithBudget(context.Background(), time.Second))
	if err == nil {
		t.Fatal("run with a 1s event-time budget completed")
	}
	if !errors.Is(err, ErrRunDeadline) || !admission.IsDeadline(err) {
		t.Fatalf("error = %v, want ErrRunDeadline wrapping admission.ErrDeadline", err)
	}
	if res != nil {
		t.Fatalf("aborted run returned %d results, want none", len(res))
	}
	if got := r.Metrics().Counter("stream_run_aborted").Value(); got != 1 {
		t.Fatalf("stream_run_aborted = %d, want 1", got)
	}
	// The abort only stopped the driver between records.
	if off := src.Offset(); off <= 0 || off >= 6000 {
		t.Fatalf("source offset %d, want a partial read", off)
	}
	waitStreamGoroutines(t, baseline)
}

func TestRunCtxCancelPassesThrough(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := deadlineRunner(NewGeneratorSource(5, 3000, 16, time.Millisecond, 0)).RunCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if admission.IsDeadline(err) {
		t.Fatal("cancellation must not read as a deadline")
	}
	waitStreamGoroutines(t, baseline)
}
