package obsv

import (
	"sync"
	"time"
)

// MaxChildren bounds the children recorded under one span. Beyond it,
// further children are counted in Dropped instead of stored — a peel
// with ten thousand rounds must not inflate a debug response or a
// slow-query line into megabytes.
const MaxChildren = 64

// Trace is one request's span tree. The zero value is not usable;
// construct with NewTrace. All methods are safe for concurrent use
// (kernel callbacks may fire from worker goroutines) and safe on a nil
// receiver (no-ops), so call sites never need nil guards.
type Trace struct {
	start time.Time
	mu    sync.Mutex
	root  span
}

// span is the internal node. start/dur are monotonic offsets from the
// trace start; dur == -1 marks a span still open.
type span struct {
	name     string
	start    time.Duration
	dur      time.Duration
	children []*span
	dropped  int
}

// Span is a handle on one node of a trace's span tree.
type Span struct {
	t *Trace
	s *span
}

// NewTrace starts a trace whose root span is named name.
func NewTrace(name string) *Trace {
	t := &Trace{start: time.Now()}
	t.root = span{name: name, dur: -1}
	return t
}

// Elapsed returns the time since the trace started.
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// Root returns a handle on the root span.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, s: &t.root}
}

// Child opens a new child span named name under sp. End it with End;
// a child left open is rendered with its live duration at snapshot
// time.
func (sp *Span) Child(name string) *Span {
	if sp == nil || sp.t == nil {
		return nil
	}
	c := &span{name: name, start: sp.t.Elapsed(), dur: -1}
	sp.t.mu.Lock()
	sp.attachLocked(c)
	sp.t.mu.Unlock()
	return &Span{t: sp.t, s: c}
}

// Stage records an already-completed child of sp: duration d, ending
// now. This is the adapter shape for kernel callbacks, which time a
// stage themselves and report (name, d) after the fact.
func (sp *Span) Stage(name string, d time.Duration) {
	if sp == nil || sp.t == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	start := sp.t.Elapsed() - d
	if start < 0 {
		start = 0
	}
	c := &span{name: name, start: start, dur: d}
	sp.t.mu.Lock()
	sp.attachLocked(c)
	sp.t.mu.Unlock()
}

// attachLocked appends c under sp, honoring MaxChildren. Caller holds
// t.mu.
func (sp *Span) attachLocked(c *span) {
	if len(sp.s.children) >= MaxChildren {
		sp.s.dropped++
		return
	}
	sp.s.children = append(sp.s.children, c)
}

// End closes the span. Ending twice keeps the first duration.
func (sp *Span) End() {
	if sp == nil || sp.t == nil {
		return
	}
	now := sp.t.Elapsed()
	sp.t.mu.Lock()
	if sp.s.dur < 0 {
		sp.s.dur = now - sp.s.start
	}
	sp.t.mu.Unlock()
}

// Hook adapts the span into the plain stage-callback shape consumed by
// the compute kernels (core.Options.Stage, peel.Options.Stage). A nil
// span yields a nil func, preserving the kernels' zero-overhead path.
func (sp *Span) Hook() func(stage string, d time.Duration) {
	if sp == nil || sp.t == nil {
		return nil
	}
	return sp.Stage
}

// SpanNode is an immutable snapshot of one span, with offsets and
// durations in microseconds. Still-open spans report their live
// duration at snapshot time.
type SpanNode struct {
	Name     string
	StartUS  int64
	DurUS    int64
	Dropped  int
	Children []SpanNode
}

// Snapshot returns the current span tree. The trace remains live;
// snapshots are cheap enough to take once per request.
func (t *Trace) Snapshot() SpanNode {
	if t == nil {
		return SpanNode{}
	}
	now := t.Elapsed()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root.snapshotLocked(now)
}

func (s *span) snapshotLocked(now time.Duration) SpanNode {
	dur := s.dur
	if dur < 0 { // still open: live duration
		dur = now - s.start
	}
	n := SpanNode{
		Name:    s.name,
		StartUS: s.start.Microseconds(),
		DurUS:   dur.Microseconds(),
		Dropped: s.dropped,
	}
	if len(s.children) > 0 {
		n.Children = make([]SpanNode, len(s.children))
		for i, c := range s.children {
			n.Children[i] = c.snapshotLocked(now)
		}
	}
	return n
}

// Stages returns the top-level stage names and durations of the trace
// (the root's direct children) — the per-stage view the serving layer
// feeds into its stage-latency histograms.
func (t *Trace) Stages() []StageTiming {
	if t == nil {
		return nil
	}
	now := t.Elapsed()
	t.mu.Lock()
	defer t.mu.Unlock()
	return timings(t.root.children, now)
}

// SubStages returns the direct children of every top-level stage
// named parent, with their durations.
func (t *Trace) SubStages(parent string) []StageTiming {
	if t == nil {
		return nil
	}
	now := t.Elapsed()
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []StageTiming
	for _, c := range t.root.children {
		if c.name == parent {
			out = append(out, timings(c.children, now)...)
		}
	}
	return out
}

// timings lists the spans' names and durations, open ones at their
// live duration. Caller holds t.mu.
func timings(spans []*span, now time.Duration) []StageTiming {
	out := make([]StageTiming, 0, len(spans))
	for _, c := range spans {
		d := c.dur
		if d < 0 {
			d = now - c.start
		}
		out = append(out, StageTiming{Name: c.name, Dur: d})
	}
	return out
}

// StageTiming is one (stage, duration) pair from Stages.
type StageTiming struct {
	Name string
	Dur  time.Duration
}
