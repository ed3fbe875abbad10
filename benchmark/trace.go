package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval: a request seen from the client, or one
// call the benchmark made into a module. Spans of one request or one
// replayed operation share a trace id; Parent is 0 for a root.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// activeSpan is a started span; end records it.
type activeSpan struct {
	tr *tracer
	s  span
}

// begin starts a span under parent (nil for a new trace).
func (t *tracer) begin(parent *activeSpan, name string) *activeSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	s := span{ID: id, Trace: id, Name: name, Start: int64(time.Since(t.t0))}
	if parent != nil {
		s.Trace, s.Parent = parent.s.Trace, parent.s.ID
	}
	return &activeSpan{tr: t, s: s}
}

// end records the span and returns its duration (0 when untraced).
func (a *activeSpan) end() time.Duration {
	if a == nil {
		return 0
	}
	a.s.End = int64(time.Since(a.tr.t0))
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, a.s)
	a.tr.mu.Unlock()
	return a.s.dur()
}

// timed runs fn inside a span named name and returns fn's wall time,
// which is measured whether or not tracing is on.
func (t *tracer) timed(parent *activeSpan, name string, fn func()) time.Duration {
	sp := t.begin(parent, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	sp.end()
	return d
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile stores the spans as a JSON array.
func (t *tracer) writeFile(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover
// (overlapping children are counted once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return time.Duration(total)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
