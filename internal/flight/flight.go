// Package flight deduplicates concurrent identical work — the
// singleflight pattern, hand-rolled since the repo is stdlib-only.
//
// The first caller for a key becomes the leader: it runs fn outside
// the group lock and publishes the result. Callers that arrive while
// the leader is still running join the flight and block until the
// leader finishes, then observe the leader's exact result. The key is
// removed before the result is published, so a caller that arrives
// after completion starts a fresh flight rather than reading a stale
// one — the group only coalesces work that is genuinely in progress.
//
// Correctness therefore depends on the key: it must pin every input
// the result depends on (the cluster keys gathers by graph name plus
// partial-cache generation; the serve layer keys kernel executions by
// the full result-cache key — api surface, graph, version, normalized
// query). Two requests with the same key must be answerable by the
// same bytes.
package flight

import "sync"

// call is one in-progress flight and its eventual result.
type call[T any] struct {
	done     chan struct{}
	val      T
	arrivals int // leader + followers currently in this flight
}

// Group coalesces concurrent calls per key. The zero value is ready
// to use.
type Group[T any] struct {
	mu sync.Mutex
	m  map[string]*call[T]
}

// Do returns fn's result for key, joining an identical in-progress
// call instead of starting a second one. joined reports whether this
// caller shared another flight's work. fn runs outside the group
// lock, on the leader's goroutine — if the leader must survive its
// own caller's cancellation, detach the context before calling Do.
func (g *Group[T]) Do(key string, fn func() T) (val T, joined bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call[T])
	}
	if c, ok := g.m[key]; ok {
		c.arrivals++
		g.mu.Unlock()
		<-c.done
		return c.val, true
	}
	c := &call[T]{done: make(chan struct{}), arrivals: 1}
	g.m[key] = c
	g.mu.Unlock()

	c.val = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, false
}

// Waiting reports how many callers (leader included) are currently in
// the flight for key; 0 once the flight completes. Intended for tests
// that need to observe a herd fully assembled before releasing it.
func (g *Group[T]) Waiting(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.arrivals
	}
	return 0
}
