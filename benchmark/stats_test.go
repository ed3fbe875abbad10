package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

// The run-to-run spread is judged with Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// The reported tail is the highest percentile with at least ten
// samples beyond it.
func TestTailPercentileSampleRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{99, 0}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {50000, 0.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestRequireRejectsShortRuns(t *testing.T) {
	w := &work{}
	if err := w.require("cold", 199, 200); err == nil {
		t.Error("199 cold samples accepted where 200 are needed")
	}
	if err := w.require("cold", 200, 200); err != nil {
		t.Error(err)
	}
	w.o.smoke = true
	if err := w.require("cold", 1, 200); err != nil {
		t.Errorf("smoke runs need one sample: %v", err)
	}
}

func TestWeightedQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 100}
	if got := weightedQuantile(xs, []float64{1, 1, 1, 1}, 0.5); got != 2 {
		t.Errorf("equal weights: median %v, want 2", got)
	}
	// Giving the outlier three quarters of the weight moves the median
	// onto it.
	if got := weightedQuantile(xs, []float64{1, 1, 1, 9}, 0.5); got != 100 {
		t.Errorf("heavy outlier: median %v, want 100", got)
	}
}

// A stratum drawn twice as often as scheduled must not pull the
// quantile toward itself.
func TestReadQuantileUsesScheduledShares(t *testing.T) {
	var ss []sample
	for i := 0; i < 300; i++ { // counts: 30% scheduled, drawn 75%
		ss = append(ss, sample{class: "warm", kind: "count", ms: 1})
	}
	for i := 0; i < 100; i++ { // estimates: 30% × 6/7 scheduled
		ss = append(ss, sample{class: "warm", kind: "estimate", ms: 9})
	}
	all := func(sample) bool { return true }
	// Unweighted, the median would be 1 (75% of samples). With the
	// scheduled shares, counts carry 0.30 and estimates 0.257 of 0.557,
	// so the median is still a count — but the 0.6 quantile is not.
	if got := readQuantile(ss, all, 0.5); got != 1 {
		t.Errorf("median %v, want 1", got)
	}
	if got := readQuantile(ss, all, 0.6); got != 9 {
		t.Errorf("0.6 quantile %v, want 9", got)
	}
}

func TestSelfTimes(t *testing.T) {
	msn := func(x int64) int64 { return x * int64(time.Millisecond) }
	spans := []span{
		{Trace: 1, ID: 1, Name: "request", Start: msn(0), End: msn(100)},
		// Two overlapping children cover 10–50, one more 60–70, and one
		// sticks out past the parent's end (clipped at 100).
		{Trace: 1, ID: 2, Parent: 1, Name: "kernel", Start: msn(10), End: msn(40)},
		{Trace: 1, ID: 3, Parent: 1, Name: "kernel", Start: msn(30), End: msn(50)},
		{Trace: 1, ID: 4, Parent: 1, Name: "render", Start: msn(60), End: msn(70)},
		{Trace: 1, ID: 5, Parent: 1, Name: "late", Start: msn(95), End: msn(120)},
		// A grandchild counts against its own parent only.
		{Trace: 1, ID: 6, Parent: 2, Name: "agg", Start: msn(15), End: msn(25)},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"request": 45 * time.Millisecond, // 100 − (40 + 10 + 5)
		"kernel":  40 * time.Millisecond, // (30 − 10) + 20
		"render":  10 * time.Millisecond,
		"late":    25 * time.Millisecond,
		"agg":     10 * time.Millisecond,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	ran := false
	tr.timed(nil, "x", func() { ran = true })
	if !ran || len(tr.snapshot()) != 0 || tr.begin(nil, "y").end() != 0 {
		t.Error("a nil tracer must run the function and record nothing")
	}
	tr = newTracer()
	root := tr.begin(nil, "root")
	tr.timed(root, "child", func() {})
	root.end()
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Parent != spans[1].ID || spans[0].Trace != spans[1].Trace {
		t.Errorf("child span not linked to its parent: %+v", spans)
	}
}
