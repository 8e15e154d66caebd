package kvstore

import (
	"context"
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/topology"
)

// ErrDeadlineExceeded is returned by the context-aware quorum ops when
// the operation cannot finish within the caller's virtual budget (see
// admission.WithBudget) or the context is already done. It wraps
// admission.ErrDeadline, so errors.Is separates a timeout from a quorum
// failure (ErrQuorumFailed) at every call site — the distinction the
// retry policy needs, because a timeout is retry-worthy while a quorum
// config error is not.
var ErrDeadlineExceeded = fmt.Errorf("kvstore: deadline exceeded: %w", admission.ErrDeadline)

// ctxGate maps a finished context to the store's typed errors before any
// work is done: a request that expired while queueing is rejected in
// O(1) without fanning out to replicas — under overload this is where
// deadline propagation stops the wasted-work spiral.
func ctxGate(ctx context.Context) (budget time.Duration, hasBudget bool, err error) {
	select {
	case <-ctx.Done():
		if ctx.Err() == context.DeadlineExceeded {
			return 0, false, ErrDeadlineExceeded
		}
		return 0, false, ctx.Err()
	default:
	}
	budget, hasBudget = admission.Budget(ctx)
	if hasBudget && budget <= 0 {
		return 0, false, ErrDeadlineExceeded
	}
	return budget, hasBudget, nil
}

// GetCtx is Get with cancellation and virtual-deadline propagation. If
// the read's simulated latency exceeds the remaining budget the client
// gives up at the deadline: the returned latency is the budget actually
// burned and the error is ErrDeadlineExceeded.
func (s *Store) GetCtx(ctx context.Context, coordinator topology.NodeID, key string) ([]byte, time.Duration, error) {
	budget, has, err := ctxGate(ctx)
	if err != nil {
		s.Reg.Counter("deadline_exceeded").Inc()
		return nil, 0, err
	}
	value, lat, err := s.Get(coordinator, key)
	if has && lat > budget {
		s.Reg.Counter("deadline_exceeded").Inc()
		return nil, budget, ErrDeadlineExceeded
	}
	return value, lat, err
}

// PutCtx is Put with cancellation and virtual-deadline propagation.
// A put that overruns its budget returns ErrDeadlineExceeded but is
// *ambiguous*, exactly like a timed-out write in a real quorum store:
// the replicas that acknowledged keep the value, so a later read may
// observe it. Callers must treat the error as "unknown outcome", never
// "not written" — the linearizability oracle in internal/check scores
// such writes as concurrent, which is why shedding cannot corrupt
// histories.
func (s *Store) PutCtx(ctx context.Context, coordinator topology.NodeID, key string, value []byte) (time.Duration, error) {
	budget, has, err := ctxGate(ctx)
	if err != nil {
		s.Reg.Counter("deadline_exceeded").Inc()
		return 0, err
	}
	lat, err := s.Put(coordinator, key, value)
	if has && lat > budget {
		s.Reg.Counter("deadline_exceeded").Inc()
		return budget, ErrDeadlineExceeded
	}
	return lat, err
}
