package main

import (
	"math"
	"math/rand"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark shares its machine with other tenants, whose load comes
// and goes: the same count can take 1.6× longer for seconds or a minute
// at a time, and the machine's quiet speed drifts by 10–20% over
// minutes. A median over a ten-second run cannot hide that, so every
// workload also times a fixed calibration kernel and reports its
// timings scaled to the kernel's time on a quiet machine. The kernel is
// the benchmark's own code, so no change to the program can move it;
// raw times are kept in every result file.
//
//   - The library workloads run the kernel after every stand-in's
//     calls, with nothing else running, and scale each call by the
//     kernel's wall time around it.
//   - The serving workloads cannot stop their load to time it: their
//     servers share the CPUs with the load generator. A sampler runs a
//     slice of the kernel every calibPeriod during the phase and times
//     it in thread CPU time, which the scheduler's waits do not inflate
//     but slower execution does. Latencies are scaled by the square
//     root of the slowdown it sees: a request is part kernel and part
//     system calls and scheduling, which the other tenants slow less.
//     In twelve-run tests the full ratio over-corrected the gather-bound
//     cluster timings; the square root narrowed the spread of every
//     serving timing.

// calibNominalMS is the calibration kernel's time on a quiet 2-vCPU
// Intel Xeon virtual machine (the reference run's machine in
// README.md). Scaled times read as milliseconds on that machine at
// rest.
const calibNominalMS = 28.0

// calibKernel is a sequential wedge aggregation over a fixed random
// bipartite graph — the access pattern of the counting kernels, with a
// working set (a few MB) past the per-core caches.
type calibKernel struct {
	ptr, adj, ptrT, adjT []int32
	acc                  []int32
	touched              []int32
}

func newCalib() *calibKernel {
	const m, n, e = 200000, 50000, 400000
	rng := rand.New(rand.NewSource(1))
	rows := make([][]int32, m)
	cols := make([][]int32, n)
	for i := 0; i < e; i++ {
		u, v := int32(rng.Intn(m)), int32(rng.Intn(n))
		rows[u] = append(rows[u], v)
		cols[v] = append(cols[v], u)
	}
	c := &calibKernel{acc: make([]int32, m), touched: make([]int32, 0, 1024)}
	for _, r := range rows {
		c.ptr = append(c.ptr, int32(len(c.adj)))
		c.adj = append(c.adj, r...)
	}
	c.ptr = append(c.ptr, int32(len(c.adj)))
	for _, col := range cols {
		c.ptrT = append(c.ptrT, int32(len(c.adjT)))
		c.adjT = append(c.adjT, col...)
	}
	c.ptrT = append(c.ptrT, int32(len(c.adjT)))
	c.run()
	return c
}

// run runs the whole kernel and returns its wall time.
func (c *calibKernel) run() time.Duration {
	t0 := time.Now()
	c.runRows(len(c.ptr) - 1)
	return time.Since(t0)
}

// runRows counts the butterflies the first rows vertices close (the
// value is discarded; keeping it stops the loop from being optimized
// away).
func (c *calibKernel) runRows(rows int) {
	var total int64
	for u := 0; u < rows; u++ {
		for _, v := range c.adj[c.ptr[u]:c.ptr[u+1]] {
			for _, w := range c.adjT[c.ptrT[v]:c.ptrT[v+1]] {
				if int(w) < u {
					if c.acc[w] == 0 {
						c.touched = append(c.touched, w)
					}
					c.acc[w]++
				}
			}
		}
		for _, w := range c.touched {
			k := int64(c.acc[w])
			total += k * (k - 1) / 2
			c.acc[w] = 0
		}
		c.touched = c.touched[:0]
	}
	calibSink = total
}

var calibSink int64

// scaled converts a time measured while the calibration kernel took
// refMS into milliseconds on the quiet reference machine.
func scaled(ms, refMS float64) float64 { return ms * calibNominalMS / refMS }

const (
	calibSliceRows = 25000 // of 200000 rows
	calibPeriod    = 250 * time.Millisecond
)

// threadCPU is the calling OS thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// sliceCPU runs the kernel slice on the calling (locked) thread and
// returns its CPU time in ms.
func (c *calibKernel) sliceCPU(rows int) float64 {
	t0 := threadCPU()
	c.runRows(rows)
	return ms(threadCPU() - t0)
}

// cpuSampler times the kernel slice in thread CPU time every
// calibPeriod while a serving phase runs.
type cpuSampler struct {
	nominal float64 // the slice's CPU time on the quiet reference machine, ms
	stop    chan struct{}
	done    chan struct{}
	ms      []float64
}

// startSampler measures the slice against the whole kernel (their
// ratio does not depend on the machine's speed), then samples the
// slice until finish.
func startSampler(k *calibKernel) *cpuSampler {
	s := &cpuSampler{stop: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		defer close(s.done)
		var part, full []float64
		for i := 0; i < 3; i++ {
			part = append(part, k.sliceCPU(calibSliceRows))
			full = append(full, k.sliceCPU(len(k.ptr)-1))
		}
		s.nominal = calibNominalMS * median(part) / median(full)
		close(ready)
		tick := time.NewTicker(calibPeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.ms = append(s.ms, k.sliceCPU(calibSliceRows))
			}
		}
	}()
	<-ready
	return s
}

// finish stops the sampler and returns the factor serving latencies are
// multiplied by (throughput is divided by it): the square root of the
// quiet slice time over the median sampled one.
func (s *cpuSampler) finish() float64 {
	close(s.stop)
	<-s.done
	if len(s.ms) == 0 {
		return 1
	}
	return math.Sqrt(s.nominal / median(s.ms))
}
