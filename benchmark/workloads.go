package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// work is the state of one workload process.
type work struct {
	o       options
	scratch string  // removed when the process ends
	tr      *tracer // non-nil only during the traced phase
	res     *workloadResult
	e2e     map[string]float64
	layers  layerSet
	calib   *calibKernel     // library workloads: scales times to the quiet machine
	seen    map[string]int64 // first answer per key, the oracle at unpinned scales
	mu      sync.Mutex       // guards res while load goroutines run
}

// dsSpec names one generated input: a Fig 9 stand-in at a scale
// (1 = the paper's size).
type dsSpec struct {
	name  string
	scale int
}

func workloadFunc(name string) func(*work) error {
	switch name {
	case "paper-scale1":
		return paperScale1
	case "peel-scale1":
		return peelScale1
	case "serve-read":
		return serveRead
	case "serve-write":
		return serveWrite
	case "cluster-partitioned":
		return clusterPartitioned
	}
	return nil
}

// fail records a wrong or failed operation.
func (w *work) fail(format string, args ...any) {
	w.res.Failed++
	if len(w.res.Errors) < 20 {
		w.res.Errors = append(w.res.Errors, fmt.Sprintf(format, args...))
	}
}

// setupRepeats is how many times each workload sets itself up; the
// median is setup_s.
const setupRepeats = 3

// setups runs fn setupRepeats times (last reports the final round,
// whose state the timed phase uses) and records setup_s, scaled by the
// calibration kernel when the workload has one.
func (w *work) setups(fn func(last bool) error) error {
	var prev float64
	if w.calib != nil {
		prev = ms(w.calib.run())
	}
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := fn(i == setupRepeats-1); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0).Seconds()
		if w.calib != nil {
			w.addSamples("raw:setup_s", d)
			next := ms(w.calib.run())
			d = scaled(d, (prev+next)/2)
			prev = next
		}
		w.res.Setup = append(w.res.Setup, d)
	}
	w.e2e["setup_s"] = median(w.res.Setup)
	return nil
}

// phaseClock says whether a timed phase should go on: until its length
// has passed and it has done its minimum number of iterations, but
// never past six times its length. A slow moment on the machine thus
// lengthens a phase instead of invalidating the run.
type phaseClock struct {
	end, hard time.Time
	min       int
}

func (w *work) clock(min int) phaseClock {
	if w.o.smoke {
		min = 1
	}
	now, length := time.Now(), time.Duration(w.o.seconds)*time.Second
	return phaseClock{end: now.Add(length), hard: now.Add(6 * length), min: min}
}

func (p phaseClock) more(done int) bool {
	now := time.Now()
	return now.Before(p.end) || (done < p.min && now.Before(p.hard))
}

// require makes the run invalid — it then reports nothing — when a
// class has fewer than want samples (smoke runs need one).
func (w *work) require(class string, got, want int) error {
	if w.o.smoke {
		want = 1
	}
	if got < want {
		return fmt.Errorf("invalid run: %d %s samples, need at least %d", got, class, want)
	}
	return nil
}

// addSamples appends latencies to a raw sample class.
func (w *work) addSamples(class string, xs ...float64) {
	w.res.Samples[class] = append(w.res.Samples[class], xs...)
}

// tailDetail records the highest percentile of a class's latencies that
// has at least ten samples beyond it, and which percentile that was.
func (w *work) tailDetail(class string, xs []float64) {
	if p := tailPercentile(len(xs)); p > 0 {
		w.res.Details[class+"_tail_ms"] = quantile(xs, p)
		w.res.Details[class+"_tail_pct"] = 100 * p
	}
}

// mkTemp makes a scratch directory under dir.
func mkTemp(dir, pattern string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, pattern)
}

// selfRSSMB is this process's peak resident set in MB.
func selfRSSMB() float64 { return readHWM("/proc/self/status") }

func scaleOr(smoke bool, paper int) int {
	if smoke {
		return 50
	}
	return paper
}

func nproc() int { return runtime.NumCPU() }
