package kvstore

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/admission"
)

func TestCtxOpsPassThrough(t *testing.T) {
	s := newStore(t, 3, 2, 2)
	ctx := context.Background()
	if _, err := s.PutCtx(ctx, 0, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, _, err := s.GetCtx(ctx, 1, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("GetCtx = %q, %v", v, err)
	}
	if _, err := s.Delete(0, "k"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GetCtx(ctx, 1, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
}

func TestCtxDeadline(t *testing.T) {
	s := newStore(t, 3, 2, 2)
	if _, err := s.Put(0, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	// A request whose budget expired in the queue is rejected in O(1).
	dead := admission.WithBudget(context.Background(), 0)
	if _, _, err := s.GetCtx(dead, 0, "k"); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired budget: %v", err)
	}
	// The typed error must read as a deadline, not a quorum failure.
	if _, _, err := s.GetCtx(dead, 0, "k"); !admission.IsDeadline(err) || errors.Is(err, ErrQuorumFailed) {
		t.Fatalf("error identity wrong: %v", err)
	}

	// A budget below the op's simulated latency burns exactly the budget.
	tiny := admission.WithBudget(context.Background(), time.Nanosecond)
	_, lat, err := s.GetCtx(tiny, 0, "k")
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("tiny budget: %v", err)
	}
	if lat != time.Nanosecond {
		t.Fatalf("burned %v, want the 1ns budget", lat)
	}
	if _, err := s.PutCtx(tiny, 0, "k", []byte("v2")); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("tiny-budget put: %v", err)
	}
	// The overrun write is ambiguous: it may be durable. Verify it is,
	// so callers can never assume "deadline" means "not written".
	v, _, err := s.Get(0, "k")
	if err != nil || string(v) != "v2" {
		t.Fatalf("ambiguous write not durable: %q, %v", v, err)
	}

	// An ample budget changes nothing.
	ample := admission.WithBudget(context.Background(), time.Second)
	if _, _, err := s.GetCtx(ample, 0, "k"); err != nil {
		t.Fatalf("ample budget: %v", err)
	}

	// Cancellation maps to context.Canceled, distinct from deadline.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.GetCtx(cctx, 0, "k"); !errors.Is(err, context.Canceled) || admission.IsDeadline(err) {
		t.Fatalf("cancel: %v", err)
	}
	if got := s.Reg.Counter("deadline_exceeded").Value(); got < 4 {
		t.Fatalf("deadline_exceeded counter = %d", got)
	}
}
