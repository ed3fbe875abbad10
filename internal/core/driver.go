package core

import (
	"sync/atomic"

	"butterfly/internal/graph"
)

// countKernel is the one driver behind every unblocked family count:
// each exposed vertex contributes update (18) through the hybrid
// kernel (kern.contrib), and the driver only decides who runs which
// vertices.
//
// At one worker it sweeps the exposed side in traversal order with no
// schedule, polling stop every stopStride+1 vertices. At more workers
// the outer loop is embarrassingly parallel — each iteration reads the
// adjacency and writes a worker-private accumulator — so the driver:
//
//  1. computes the exact per-vertex wedge work in one CSR pass;
//  2. builds a work-weighted schedule (sched.go) — guided decreasing
//     chunks plus hub splitting for any vertex above the spill budget;
//  3. clamps the worker count to the number of schedule units (a
//     hub-heavy graph with few exposed vertices still gets as many
//     workers as it has units), falling back to the sweep at one;
//  4. phase 1: runWorkers claims units from an atomic cursor. Chunks
//     run the kernel per vertex; candidate-range segments of
//     bitset-path hubs are additive and accumulate directly;
//     neighbor-list segments of sparse hubs export partial wedge
//     counts;
//  5. phase 2: runWorkers merges each split hub's partials and applies
//     C(β, 2).
//
// Every path computes the same integer wedge multiplicities, so the
// result is bit-identical for every policy, tuning and thread count.
// Once stop is raised, workers skip the units they still claim and the
// reduction is skipped; the partial total returned after an abort is
// unspecified — CountContext discards it. Workspaces are only handed
// back at rest, so an aborted count leaves the arena clean.
func countKernel(g *graph.Bipartite, inv Invariant, threads int, pol hubPolicy, agg AggPolicy, a *Arena, tun schedTuning, stop *atomic.Bool) int64 {
	desc, above := inv.geometry()
	exposed, secondary := orient(g, inv)
	if threads <= 1 {
		ks := newKernShared(exposed, secondary, above, pol, agg, nil)
		return ks.sweep(desc, a, stop)
	}
	work := workPerExposed(exposed, secondary, above)
	ks := newKernShared(exposed, secondary, above, pol, agg, work)
	sched := buildSchedule(work, desc, threads, tun,
		restrictedSegWork(exposed, secondary, above),
		exposed.RowDeg, ks.bitsSplitFunc(), exposed.Ptr)
	// Clamp on schedulable work units, not vertex count: a unit is the
	// smallest indivisible piece of work, so extra workers would only
	// spin on the cursor.
	if threads = min(threads, len(sched.units)); threads <= 1 {
		return ks.sweep(desc, a, stop)
	}
	return ks.runSchedule(sched, desc, threads, a, stop)
}

// stopStride masks the iteration index for cancellation polls: a
// checkpoint every 256 exposed vertices keeps the poll off the hot
// wedge loop while bounding abort latency to a few hundred rows.
const stopStride = 0xFF

// sweep counts every exposed vertex on the calling goroutine. The poll
// sits between vertices, where the workspace is at rest.
func (ks *kernShared) sweep(desc bool, a *Arena, stop *atomic.Bool) int64 {
	ws := a.get(ks.exposed.R)
	defer a.put(ws)
	kn := ks.worker(ws)
	n := ks.exposed.R
	var total int64
	for idx := 0; idx < n; idx++ {
		if idx&stopStride == 0 && stopped(stop) {
			break
		}
		k := idx
		if desc {
			k = n - 1 - idx
		}
		total += kn.contrib(k)
	}
	return total
}

// runSchedule runs the two phases of a parallel count on runWorkers.
func (ks *kernShared) runSchedule(sched *schedule, desc bool, threads int, a *Arena, stop *atomic.Bool) int64 {
	n := ks.exposed.R
	// parts[i][s] holds segment s of spill i, written by exactly one
	// phase-1 unit and read after runWorkers joins.
	parts := make([][][]hubPair, len(sched.spills))
	for i, sp := range sched.spills {
		parts[i] = make([][]hubPair, sp.segs)
	}
	var total atomic.Int64
	putAll := func(wss []*workspace) {
		for _, ws := range wss {
			a.put(ws)
		}
	}
	putAll(runWorkers(len(sched.units), threads, n, a, func(i int, ws *workspace) {
		if stopped(stop) {
			return
		}
		kn := ks.worker(ws)
		u := &sched.units[i]
		switch u.kind {
		case unitChunk:
			var local int64
			for idx := u.lo; idx < u.hi; idx++ {
				k := idx
				if desc {
					k = n - 1 - idx
				}
				local += kn.contrib(k)
			}
			total.Add(local)
		case unitZSeg:
			total.Add(kn.contribBitsRange(u.hub, u.lo, u.hi))
		case unitYSeg:
			parts[u.spill][u.seg] = kn.segPairs(u.hub, u.lo, u.hi)
		}
	}))
	// Phase 2: reduce split-hub partials. An aborted phase 1 may have
	// left nil segments in parts; the reduction is skipped then.
	if len(parts) > 0 && !stopped(stop) {
		putAll(runWorkers(len(parts), min(threads, len(parts)), n, a, func(i int, ws *workspace) {
			kn := ks.worker(ws)
			total.Add(kn.reducePairs(parts[i]))
		}))
	}
	return total.Load()
}
