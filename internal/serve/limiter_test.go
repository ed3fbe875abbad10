package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestShedOnlyWhenQueueTrulyFull is the regression for the historical
// admission race: the old limiter checked for a free slot lock-free
// and then joined the queue with a separate atomic, so a request could
// be shed although a slot freed in between. The schedule below pins
// the boundary deterministically: the test holds the scheduler lock,
// parks an arriving request on it, frees the slot while still holding
// the lock, and only then lets the arrival in — with NoQueue semantics
// the old structure shed here; the rewritten limiter must admit.
func TestShedOnlyWhenQueueTrulyFull(t *testing.T) {
	l := newLimiter(1, 0) // one slot, no queue: any miss is a shed
	if err := l.acquire(context.Background()); err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	l.mu.Lock()
	var started atomic.Bool
	res := make(chan error, 1)
	go func() {
		started.Store(true)
		res <- l.acquire(context.Background())
	}()
	for !started.Load() {
		time.Sleep(time.Millisecond)
	}
	// The arrival is at (or heading for) the lock; free the slot before
	// it can observe anything.
	time.Sleep(10 * time.Millisecond)
	l.inflight--
	l.dispatchLocked()
	l.mu.Unlock()

	if err := <-res; err != nil {
		t.Fatalf("acquire after concurrent release shed: %v", err)
	}
	if got := l.shedTotal(); got != 0 {
		t.Fatalf("shedTotal = %d, want 0", got)
	}
	l.release()
}

// TestWeightedFairness pins the WRR schedule: with tenants weighted
// 1:4 both saturating one lane, grants interleave A,B,B,B,B — so any
// window of served requests splits 1:4 (±1 for cursor position).
func TestWeightedFairness(t *testing.T) {
	l := newQoSLimiter(1, 300, TenantsConfig{
		Tenants: map[string]TenantSpec{
			"a": {Weight: 1},
			"b": {Weight: 4},
		},
	})
	if err := l.acquire(context.Background()); err != nil { // occupy the slot
		t.Fatal(err)
	}

	const perA, perB = 25, 100
	grants := make(chan string, perA+perB)
	var wg sync.WaitGroup
	enqueue := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := l.acquireFor(context.Background(), tenant, laneInteractive); err != nil {
					t.Errorf("%s: %v", tenant, err)
					return
				}
				grants <- tenant
				l.release()
			}()
		}
	}
	enqueue("a", perA)
	enqueue("b", perB)
	for l.queueDepth() < perA+perB {
		time.Sleep(time.Millisecond)
	}

	l.release() // open the floodgate; grants serialize through the slot
	wg.Wait()
	close(grants)

	var a, b int
	order := make([]string, 0, perA+perB)
	for g := range grants {
		order = append(order, g)
		if len(order) <= 50 {
			if g == "a" {
				a++
			} else {
				b++
			}
		}
	}
	// First 50 grants: exactly 10 A and 40 B modulo the cursor's
	// starting position.
	if a < 9 || a > 11 {
		t.Fatalf("first 50 grants: a=%d b=%d, want ~10/40 (order %v)", a, b, order[:50])
	}
	if a+b != 50 {
		t.Fatalf("accounting: a+b = %d", a+b)
	}
}

// TestLanePrecedence: a queued interactive request is always granted
// before any queued batch request, regardless of arrival order — also
// when it arrives behind a flood of batch waiters. This is the
// scheduler property behind interactive latency under a batch flood.
func TestLanePrecedence(t *testing.T) {
	for _, flood := range []int{1, 24} {
		l := newLimiter(1, 64)
		if err := l.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}

		grants := make(chan lane, flood+1)
		add := func(ln lane) {
			go func() {
				if err := l.acquireFor(context.Background(), defaultTenant, ln); err != nil {
					t.Errorf("lane %v: %v", ln, err)
					return
				}
				grants <- ln
				l.release()
			}()
		}
		for i := 1; i <= flood; i++ { // the batch flood arrives FIRST
			add(laneBatch)
			for l.queueDepth() < int64(i) {
				time.Sleep(time.Millisecond)
			}
		}
		add(laneInteractive)
		for l.queueDepth() < int64(flood+1) {
			time.Sleep(time.Millisecond)
		}

		l.release()
		if first := <-grants; first != laneInteractive {
			t.Fatalf("behind %d batch waiters: first grant = %v, want interactive", flood, first)
		}
		for i := 0; i < flood; i++ {
			if next := <-grants; next != laneBatch {
				t.Fatalf("behind %d batch waiters: grant %d = %v, want batch", flood, i+2, next)
			}
		}
	}
}

// TestQuotaRetryHint: an empty bucket answers a quotaError whose retry
// hint is the bucket's actual refill horizon.
func TestQuotaRetryHint(t *testing.T) {
	l := newQoSLimiter(4, 16, TenantsConfig{
		Tenants: map[string]TenantSpec{"q": {Rate: 2, Burst: 1}},
	})
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }
	l.mu.Lock() // move buckets stamped with the real clock onto the fake one
	for _, ts := range l.tenants {
		ts.last = now
	}
	l.mu.Unlock()

	if err := l.charge("q"); err != nil {
		t.Fatalf("first charge: %v", err)
	}
	err := l.charge("q")
	var qe quotaError
	if !errors.As(err, &qe) {
		t.Fatalf("second charge = %v, want quotaError", err)
	}
	// 1 token at 2 tokens/s → 500 ms away.
	if qe.retryMS != 500 {
		t.Fatalf("retryMS = %d, want 500", qe.retryMS)
	}
	// Advance the clock past the refill horizon: the charge succeeds.
	now = now.Add(600 * time.Millisecond)
	if err := l.charge("q"); err != nil {
		t.Fatalf("charge after refill: %v", err)
	}
	// Unlimited default tenant never runs out.
	for i := 0; i < 100; i++ {
		if err := l.charge(""); err != nil {
			t.Fatalf("default tenant charge %d: %v", i, err)
		}
	}
}

// TestPerTenantQueueBound: one tenant's backlog can never consume the
// shared queue budget — its bound is half the budget by default, so a
// second tenant always finds room.
func TestPerTenantQueueBound(t *testing.T) {
	l := newQoSLimiter(1, 8, TenantsConfig{
		Tenants: map[string]TenantSpec{"flood": {}, "victim": {}},
	})
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Fill flood's queue to its per-tenant cap (8/2 = 4).
	for i := 0; i < 4; i++ {
		go func() {
			if l.acquireFor(context.Background(), "flood", laneInteractive) == nil {
				l.release()
			}
		}()
	}
	for l.queueDepth() < 4 {
		time.Sleep(time.Millisecond)
	}
	// The fifth flood request is shed at the tenant bound...
	if err := l.acquireFor(context.Background(), "flood", laneInteractive); !errors.Is(err, errShed) {
		t.Fatalf("flood over tenant bound = %v, want errShed", err)
	}
	// ...while the victim still queues fine.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := l.acquireFor(ctx, "victim", laneInteractive); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("victim enqueue = %v, want deadline (queued, not shed)", err)
	}
	st := statFor(t, l, "victim")
	if st.shedQueue != 0 {
		t.Fatalf("victim was queue-shed %d times, want 0", st.shedQueue)
	}
	l.release()
}

// TestDeadlineEvictionDuringDispatch: a waiter whose deadline expired
// while queued is skipped (and counted) when a slot frees, and the
// next live waiter is granted instead.
func TestDeadlineEvictionDuringDispatch(t *testing.T) {
	l := newLimiter(1, 16)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	dead := make(chan error, 1)
	go func() { dead <- l.acquireSlot(ctx, defaultTenant, laneInteractive) }()
	for l.queueDepth() < 1 {
		time.Sleep(time.Millisecond)
	}
	live := make(chan error, 1)
	go func() { live <- l.acquireSlot(context.Background(), defaultTenant, laneInteractive) }()
	for l.queueDepth() < 2 {
		time.Sleep(time.Millisecond)
	}

	// Let the first waiter's deadline lapse, then free the slot: the
	// dispatch scan must evict the corpse and grant the live waiter.
	time.Sleep(40 * time.Millisecond)
	l.release()
	if err := <-live; err != nil {
		t.Fatalf("live waiter: %v", err)
	}
	if err := <-dead; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired waiter: %v, want deadline exceeded", err)
	}
	if l.queueDepth() != 0 {
		t.Fatalf("queue depth = %d after drain, want 0", l.queueDepth())
	}
	l.release()
}

// TestResolveCollapsesUnknownTenants: only configured names resolve to
// themselves; everything else is charged as (and labeled) "default",
// bounding metric cardinality by the config.
func TestResolveCollapsesUnknownTenants(t *testing.T) {
	l := newQoSLimiter(1, 4, TenantsConfig{
		Tenants: map[string]TenantSpec{"known": {Weight: 2}},
	})
	for name, want := range map[string]string{
		"":        defaultTenant,
		"default": defaultTenant,
		"known":   "known",
		"mystery": defaultTenant,
	} {
		if got := l.resolve(name); got != want {
			t.Errorf("resolve(%q) = %q, want %q", name, got, want)
		}
	}
	// Hot reload: dropping "known" makes it unresolvable; adding
	// "fresh" makes it resolvable.
	l.setConfig(TenantsConfig{Tenants: map[string]TenantSpec{"fresh": {}}})
	if got := l.resolve("known"); got != defaultTenant {
		t.Errorf("resolve(known) after drop = %q, want default", got)
	}
	if got := l.resolve("fresh"); got != "fresh" {
		t.Errorf("resolve(fresh) = %q", got)
	}
}

// TestConfigRoundTrip: config() returns what setConfig installed, and
// a hot reload clamps earned tokens to the new burst.
func TestConfigRoundTrip(t *testing.T) {
	cfg := TenantsConfig{
		Default: TenantSpec{Rate: 100, Weight: 1},
		Tenants: map[string]TenantSpec{"t": {Rate: 5, Burst: 50, Weight: 3, MaxQueue: 2, SLOMillis: 100}},
	}
	l := newQoSLimiter(2, 8, cfg)
	got := l.config()
	if got.Default != cfg.Default || got.Tenants["t"] != cfg.Tenants["t"] {
		t.Fatalf("config round trip: %+v", got)
	}
	// Reload with a smaller burst: the full bucket (50 tokens) clamps
	// down to 2, so the third charge fails.
	l.setConfig(TenantsConfig{Tenants: map[string]TenantSpec{"t": {Rate: 0.001, Burst: 2}}})
	if err := l.charge("t"); err != nil {
		t.Fatal(err)
	}
	if err := l.charge("t"); err != nil {
		t.Fatal(err)
	}
	var qe quotaError
	if err := l.charge("t"); !errors.As(err, &qe) {
		t.Fatalf("charge past clamped burst = %v, want quotaError", err)
	}
}

// statFor digs one tenant's stats snapshot out of the limiter.
func statFor(t *testing.T, l *limiter, name string) tenantStat {
	t.Helper()
	for _, st := range l.tenantStats() {
		if st.name == name {
			return st
		}
	}
	t.Fatalf("no stats for tenant %q", name)
	return tenantStat{}
}
