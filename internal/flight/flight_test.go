package flight

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCoalesce: N concurrent callers on one key run fn exactly once,
// every caller observes the leader's exact value, and exactly one
// caller reports joined == false.
func TestCoalesce(t *testing.T) {
	var g Group[int]
	var execs atomic.Int32
	gate := make(chan struct{})
	entered := make(chan struct{})

	const n = 64
	results := make([]int, n)
	joins := make([]bool, n)
	var wg sync.WaitGroup

	// The leader parks inside fn until every follower had a chance to
	// arrive; followers must join the same flight rather than execute.
	leaderReady := make(chan struct{})
	go func() {
		results[0], joins[0] = g.Do("k", func() int {
			close(entered)
			<-gate
			return int(execs.Add(1)) * 100
		})
		close(leaderReady)
	}()
	<-entered

	arrived := make(chan struct{}, n)
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived <- struct{}{}
			results[i], joins[i] = g.Do("k", func() int {
				return int(execs.Add(1)) * 100
			})
		}(i)
	}
	// Every follower has signalled it is about to call Do; wait until
	// the group itself reports the whole herd parked on the flight
	// before the leader is allowed to finish. A straggler that somehow
	// arrived after completion would re-execute fn and fail the
	// exactly-once assertion below, so the test cannot pass vacuously.
	for i := 1; i < n; i++ {
		<-arrived
	}
	for g.Waiting("k") < n {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	<-leaderReady

	if got := execs.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	leaders := 0
	for i := 0; i < n; i++ {
		if results[i] != 100 {
			t.Fatalf("caller %d got %d, want 100", i, results[i])
		}
		if !joins[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d callers report leading, want exactly 1", leaders)
	}
	if got := g.Waiting("k"); got != 0 {
		t.Fatalf("Waiting after completion = %d, want 0", got)
	}
}

// TestSequentialReExecutes: a caller arriving after the previous
// flight completed starts a fresh execution — the group never serves
// stale results.
func TestSequentialReExecutes(t *testing.T) {
	var g Group[int]
	n := 0
	for i := 1; i <= 3; i++ {
		v, joined := g.Do("k", func() int { n++; return n })
		if joined {
			t.Fatalf("sequential call %d reported joined", i)
		}
		if v != i {
			t.Fatalf("sequential call %d got %d, want %d", i, v, i)
		}
	}
}

// TestDistinctKeysIndependent: different keys never coalesce.
func TestDistinctKeysIndependent(t *testing.T) {
	var g Group[string]
	var wg sync.WaitGroup
	var execs atomic.Int32
	gate := make(chan struct{})
	entered := make(chan struct{}, 2)
	for _, key := range []string{"a", "b"} {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			v, joined := g.Do(key, func() string {
				execs.Add(1)
				entered <- struct{}{}
				<-gate
				return key
			})
			if joined || v != key {
				t.Errorf("key %q: v=%q joined=%v", key, v, joined)
			}
		}(key)
	}
	<-entered
	<-entered // both leaders running concurrently: no coalescing across keys
	if got := g.InFlight(); got != 2 {
		t.Errorf("InFlight = %d, want 2", got)
	}
	close(gate)
	wg.Wait()
	if got := execs.Load(); got != 2 {
		t.Fatalf("fn executed %d times, want 2", got)
	}
}

// TestZeroValueReady: the zero Group works without construction.
func TestZeroValueReady(t *testing.T) {
	var g Group[struct{ n int }]
	v, joined := g.Do("k", func() struct{ n int } { return struct{ n int }{7} })
	if joined || v.n != 7 {
		t.Fatalf("zero-value Do = (%+v, %v)", v, joined)
	}
	if g.InFlight() != 0 {
		t.Fatalf("InFlight after completion = %d, want 0", g.InFlight())
	}
}

// InFlight reports the number of keys with a leader currently
// running. Intended for metrics and tests.
func (g *Group[T]) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}
