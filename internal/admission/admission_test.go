package admission

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestTokenBucket(t *testing.T) {
	b := NewTokenBucket(100, 10) // 100/s, depth 10, starts full
	now := time.Duration(0)
	for i := 0; i < 10; i++ {
		if !b.Allow(now, 1) {
			t.Fatalf("initial burst token %d refused", i)
		}
	}
	if b.Allow(now, 1) {
		t.Fatal("empty bucket admitted a request")
	}
	// 50ms at 100/s refills 5 tokens.
	now = 50 * time.Millisecond
	for i := 0; i < 5; i++ {
		if !b.Allow(now, 1) {
			t.Fatalf("refilled token %d refused", i)
		}
	}
	if b.Allow(now, 1) {
		t.Fatal("bucket over-refilled")
	}
	// Time running backward must not mint tokens.
	if b.Allow(now-40*time.Millisecond, 1) {
		t.Fatal("stale clock minted tokens")
	}
	var nilBucket *TokenBucket
	if !nilBucket.Allow(0, 1) {
		t.Fatal("nil bucket must admit everything")
	}
}

func TestQuotasFor(t *testing.T) {
	q := QuotasFor([]string{"a", "b", "c"}, []float64{2, 1, 1}, []int{1, 0, 0}, 1000)
	if q[0].Rate != 500 || q[1].Rate != 250 || q[2].Rate != 250 {
		t.Fatalf("weighted split wrong: %+v", q)
	}
	if q[0].Priority != 1 || q[1].Priority != 0 {
		t.Fatalf("priorities not carried: %+v", q)
	}
}

func TestWFQWeightedShare(t *testing.T) {
	c := NewController(Config{Tenants: []TenantQuota{
		{ID: "heavy", Weight: 2},
		{ID: "light", Weight: 1},
	}})
	for i := 0; i < 30; i++ {
		for tenant := 0; tenant < 2; tenant++ {
			if err := c.Offer(0, Request{Tenant: tenant}); err != nil {
				t.Fatalf("offer: %v", err)
			}
		}
	}
	counts := [2]int{}
	for i := 0; i < 15; i++ {
		req, shed, ok := c.Next(time.Millisecond)
		if !ok || len(shed) != 0 {
			t.Fatalf("dequeue %d: ok=%v shed=%d", i, ok, len(shed))
		}
		counts[req.Tenant]++
	}
	// Weight 2:1 over a backlogged queue must yield a 2:1 service split.
	if counts[0] != 10 || counts[1] != 5 {
		t.Fatalf("WFQ split = %v, want [10 5]", counts)
	}
}

func TestQueueFullBackstop(t *testing.T) {
	c := NewController(Config{
		Tenants:  []TenantQuota{{ID: "t"}},
		MaxQueue: 4,
	})
	for i := 0; i < 4; i++ {
		if err := c.Offer(0, Request{}); err != nil {
			t.Fatalf("offer %d: %v", i, err)
		}
	}
	if err := c.Offer(0, Request{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("5th offer: got %v, want ErrQueueFull", err)
	}
	if err := c.Offer(0, Request{Tenant: 7}); err == nil {
		t.Fatal("unknown tenant admitted")
	}
}

func TestCoDelShedsOnSojourn(t *testing.T) {
	c := NewController(Config{
		Tenants:  []TenantQuota{{ID: "t"}},
		Target:   5 * time.Millisecond,
		Interval: 20 * time.Millisecond,
	})
	// Arrivals at 1/ms, drain at 1/2ms: sojourn grows without bound
	// unless the controller sheds.
	var admitted, shed int
	now := time.Duration(0)
	for i := 0; i < 400; i++ {
		now = time.Duration(i) * time.Millisecond
		if err := c.Offer(now, Request{Index: int64(i)}); err != nil {
			t.Fatalf("offer %d: %v", i, err)
		}
		if i%2 == 1 {
			_, sh, ok := c.Next(now)
			if ok {
				admitted++
			}
			shed += len(sh)
		}
	}
	if shed == 0 {
		t.Fatal("overloaded queue shed nothing")
	}
	if admitted == 0 {
		t.Fatal("controller shed everything")
	}

	// Under-loaded traffic (drain faster than arrivals) sheds nothing.
	c2 := NewController(Config{Tenants: []TenantQuota{{ID: "t"}}})
	for i := 0; i < 200; i++ {
		now := time.Duration(i) * time.Millisecond
		if err := c2.Offer(now, Request{}); err != nil {
			t.Fatalf("offer: %v", err)
		}
		if _, sh, _ := c2.Next(now + time.Millisecond); len(sh) != 0 {
			t.Fatalf("under-loaded queue shed %d at %v", len(sh), now)
		}
	}
}

func TestShedsLowestPriorityFirst(t *testing.T) {
	c := NewController(Config{
		Tenants: []TenantQuota{
			{ID: "batch", Priority: 0},
			{ID: "interactive", Priority: 1},
		},
		Target:   2 * time.Millisecond,
		Interval: 10 * time.Millisecond,
	})
	for i := 0; i < 50; i++ {
		now := time.Duration(i) * time.Millisecond
		if err := c.Offer(now, Request{Tenant: i % 2}); err != nil {
			t.Fatalf("offer: %v", err)
		}
	}
	// Dequeue far in the future: sojourn is way above target, so the
	// controller enters dropping and victims must all be tier-0 while
	// the batch tenant still has queued work.
	var sheds []Request
	batchQueued := 25
	for i := 0; i < 20; i++ {
		now := 200*time.Millisecond + time.Duration(i)*5*time.Millisecond
		req, sh, ok := c.Next(now)
		if ok && req.Tenant == 0 {
			batchQueued--
		}
		for _, s := range sh {
			if s.Tenant == 0 {
				batchQueued--
			}
			sheds = append(sheds, s)
		}
	}
	if len(sheds) == 0 {
		t.Fatal("expected sojourn sheds")
	}
	for _, s := range sheds {
		if s.Tenant != 0 && batchQueued > 0 {
			t.Fatalf("shed tenant %d (priority %d) while batch work was queued", s.Tenant, s.Priority)
		}
	}
}

func TestRetryBudget(t *testing.T) {
	b := NewRetryBudget(0.1)
	// Starts with one credit: a single isolated failure may retry.
	if !b.Withdraw() {
		t.Fatal("initial credit missing")
	}
	if b.Withdraw() {
		t.Fatal("empty budget allowed a retry")
	}
	for i := 0; i < 100; i++ {
		b.Deposit()
	}
	allowed := 0
	for i := 0; i < 50; i++ {
		if b.Withdraw() {
			allowed++
		}
	}
	// 100 deposits at ratio 0.1 bank ~10 credits (float accumulation
	// may round one off).
	if allowed < 9 || allowed > 10 {
		t.Fatalf("100 deposits allowed %d retries, want ~10", allowed)
	}
	if got := b.Suppressed(); got != int64(50-allowed)+1 {
		t.Fatalf("suppressed = %d, want %d", got, 50-allowed+1)
	}
	// The cap bounds banked credit from a quiet period.
	for i := 0; i < 10000; i++ {
		b.Deposit()
	}
	burst := 0
	for b.Withdraw() {
		burst++
	}
	if burst > 10 {
		t.Fatalf("cap leak: %d retries from banked credit", burst)
	}
	var nilBudget *RetryBudget
	if !nilBudget.Withdraw() {
		t.Fatal("nil budget must always allow")
	}
	nilBudget.Deposit() // must not panic
}

func TestBudgetContext(t *testing.T) {
	ctx := context.Background()
	if _, ok := Budget(ctx); ok {
		t.Fatal("bare context reported a budget")
	}
	ctx = WithBudget(ctx, 30*time.Millisecond)
	d, ok := Budget(ctx)
	if !ok || d != 30*time.Millisecond {
		t.Fatalf("Budget = %v,%v", d, ok)
	}
	wrapped := fmt.Errorf("kvstore: get: %w", ErrDeadline)
	if !IsDeadline(wrapped) {
		t.Fatal("IsDeadline missed a wrapped sentinel")
	}
	if IsDeadline(errors.New("other")) {
		t.Fatal("IsDeadline false positive")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: 100 * time.Millisecond})
	now := time.Duration(0)
	for i := 0; i < 2; i++ {
		b.Failure(now)
	}
	if b.State() != BreakerClosed {
		t.Fatal("tripped below threshold")
	}
	b.Success()
	b.Failure(now) // success must have cleared the strike count
	b.Failure(now)
	if b.State() != BreakerClosed {
		t.Fatal("strikes not cleared by success")
	}
	b.Failure(now)
	if b.State() != BreakerOpen {
		t.Fatal("did not trip at threshold")
	}
	if b.Allow(50 * time.Millisecond) {
		t.Fatal("open breaker admitted during cooldown")
	}
	// Cooldown expiry: exactly one probe.
	if !b.Allow(100 * time.Millisecond) {
		t.Fatal("half-open refused the probe")
	}
	if b.Allow(100 * time.Millisecond) {
		t.Fatal("half-open admitted a second concurrent probe")
	}
	b.Failure(100 * time.Millisecond) // probe fails: re-open immediately
	if b.State() != BreakerOpen {
		t.Fatal("failed probe did not re-open")
	}
	if !b.Allow(200 * time.Millisecond) {
		t.Fatal("second probe refused")
	}
	b.Success()
	if b.State() != BreakerClosed || !b.Allow(200*time.Millisecond) {
		t.Fatal("successful probe did not close")
	}
	if b.Opens() != 2 {
		t.Fatalf("opens = %d, want 2", b.Opens())
	}
}
