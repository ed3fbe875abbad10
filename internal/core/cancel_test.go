package core

import (
	"context"
	"slices"
	"testing"
	"time"

	"butterfly/internal/graph"
)

func cancelTestGraph(tb testing.TB) *graph.Bipartite {
	tb.Helper()
	// Dense-ish random graph large enough that a full count comfortably
	// outlasts an already-cancelled context check, small enough for CI.
	b := graph.NewBuilder(600, 600)
	seed := uint64(0x9e3779b97f4a7c15)
	for u := 0; u < 600; u++ {
		for v := 0; v < 600; v++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			if seed>>33&0x7 == 0 { // p = 1/8
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func TestCountContextMatchesCountWith(t *testing.T) {
	g := cancelTestGraph(t)
	want := CountWith(g, Options{})
	for _, opts := range []Options{
		{},
		{Threads: 4},
		{BlockSize: 8},
		{Hub: HubAlways},
		{Hub: HubNever, Arena: NewArena()},
	} {
		got, err := CountContext(context.Background(), g, opts)
		if err != nil {
			t.Fatalf("CountContext(%+v): %v", opts, err)
		}
		if got != want {
			t.Fatalf("CountContext(%+v) = %d, want %d", opts, got, want)
		}
	}
}

func TestCountContextCancelled(t *testing.T) {
	g := cancelTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range []Options{{}, {Threads: 4}, {BlockSize: 8}} {
		if _, err := CountContext(ctx, g, opts); err != context.Canceled {
			t.Fatalf("CountContext(cancelled, %+v) err = %v, want context.Canceled", opts, err)
		}
	}
}

func TestCountContextDeadline(t *testing.T) {
	g := cancelTestGraph(t)
	// A deadline that expires mid-count: loop until the count is
	// actually interrupted (on a fast machine the first try may finish
	// before the timer fires — that run still validates the count).
	want := CountWith(g, Options{})
	for _, threads := range []int{1, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Microsecond)
		c, err := CountContext(ctx, g, Options{Threads: threads})
		cancel()
		if err == nil {
			if c != want {
				t.Fatalf("uncancelled run returned %d, want %d", c, want)
			}
			continue
		}
		if err != context.DeadlineExceeded {
			t.Fatalf("err = %v, want DeadlineExceeded", err)
		}
		if c != 0 {
			t.Fatalf("cancelled CountContext leaked partial count %d", c)
		}
	}
}

// A count cancelled mid-sweep on a shared arena hands back every
// workspace it borrowed, each at rest: the next count on that arena is
// exact, and allocation-free when sequential.
func TestCountContextCancelledLeavesArenaAtRest(t *testing.T) {
	g := cancelTestGraph(t)
	want := CountSpGEMM(g)
	for _, threads := range []int{1, 4} {
		arena := NewArena()
		opts := Options{Invariant: Inv2, Threads: threads, Arena: arena}
		if threads == 1 {
			opts.Hub = HubNever // the arena-only path that allocates nothing
		}
		full := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if got := CountWith(g, opts); got != want {
				t.Fatalf("threads=%d: warm count %d, want %d", threads, got, want)
			}
			full = min(full, time.Since(t0))
		}
		borrowed := arena.Size()
		interrupted := false
		for _, frac := range []time.Duration{16, 8, 4, 2} {
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(full/frac, cancel)
			_, err := CountContext(ctx, g, opts)
			timer.Stop()
			cancel()
			interrupted = interrupted || err != nil
			if n := arena.Size(); n != borrowed {
				t.Fatalf("threads=%d: arena holds %d workspaces after a cancelled count, want %d", threads, n, borrowed)
			}
			for _, ws := range arena.free {
				if slices.ContainsFunc(ws.acc, func(c int32) bool { return c != 0 }) || len(ws.touched) > 0 ||
					(ws.bits != nil && ws.bits.Count() != 0) {
					t.Fatalf("threads=%d: a pooled workspace is not at rest after a cancelled count", threads)
				}
			}
			if got := CountWith(g, opts); got != want {
				t.Fatalf("threads=%d: count after a cancelled one = %d, want %d", threads, got, want)
			}
			if threads == 1 {
				if allocs := testing.AllocsPerRun(1, func() { CountWith(g, opts) }); allocs != 0 {
					t.Fatalf("count after a cancelled one allocated %.1f objects, want 0", allocs)
				}
			}
		}
		if !interrupted {
			t.Fatalf("threads=%d: no count was cancelled before it finished (full count %v)", threads, full)
		}
	}
}
