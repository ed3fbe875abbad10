package core

// Wedge-delta kernels for incremental peeling (ParButterfly-style
// bucketed decomposition; Shi & Shun [12], Wang et al. [13]).
//
// Round-synchronous peeling recomputes every surviving support from
// scratch each round — O(wedges of the surviving subgraph) per level.
// The kernels here invert that: given the batch peeled this round, they
// compute the exact support *decrements* of the affected neighbors only,
// so total decomposition cost is proportional to the butterflies
// destroyed rather than levels × wedges.
//
// Exactness (asserted by the quick-check suites in delta_test.go and
// internal/peel):
//
//   - Tip: removing an exposed-side batch B never changes the wedge
//     multiplicity β_uw between two surviving exposed vertices (only
//     exposed vertices leave; every secondary vertex and surviving edge
//     stays). A survivor w therefore loses exactly
//     Σ_{u∈B} C(β_uw, 2) butterflies — the pair terms it shared with
//     the batch — and nothing else.
//   - Wing: a butterfly {u,w} × {v,p} is destroyed by the batch iff at
//     least one of its four edges is in the batch and none was dead
//     before the batch. Each destroyed butterfly decrements the support
//     of each of its surviving edges by exactly 1. To count every
//     destroyed butterfly exactly once under parallel execution, the
//     butterfly is "assigned" to its minimum-id batch edge: the sweep
//     from batch edge e skips any butterfly that also contains a batch
//     edge with a smaller flat id. The rule is order-free, so workers
//     can process batch edges concurrently with atomic decrements.
//
// Both kernels draw scratch from a core.Arena and append first-touched
// ids to a caller-owned buffer (deduplicated through a caller-owned
// dirty-mark array), so steady-state peeling rounds allocate nothing on
// the sequential path (TestTipDeltaSteadyStateZeroAlloc /
// TestWingStateDeltaSteadyStateZeroAlloc). Parallel workers collect
// the ids whose dirty mark they won in a per-worker share of the list,
// held in their arena workspace and concatenated after the join.

import (
	"sync"
	"sync/atomic"

	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

// minDeltaParallelBatch is the smallest peeled batch worth fanning out
// to worker goroutines; below it the spawn cost dominates the wedge
// work and the kernels fall back to the sequential path.
const minDeltaParallelBatch = 8

// TipDeltaBatch subtracts from s the butterflies each still-alive
// vertex of the chosen side lost when batch was peeled. alive must
// already be false for every batch member (and every vertex peeled in
// earlier rounds); s is indexed by side vertex. Every vertex whose
// count actually decreased is appended exactly once to *touched, using
// dirty (an all-zero int32 array of the side's length) for
// deduplication; the caller must clear the marks of the returned ids
// before the next round. With threads > 1 the batch is processed by
// worker goroutines using atomic decrements; results are identical to
// the sequential path (the decrement multiset is the same).
func TipDeltaBatch(g *graph.Bipartite, side Side, batch []int32, alive []bool, s []int64, dirty []int32, touched *[]int32, threads int, a *Arena) {
	if len(batch) == 0 {
		return
	}
	exposed, secondary := vertexOrient(g, side)
	if threads > len(batch) {
		threads = len(batch)
	}
	if threads <= 1 || len(batch) < minDeltaParallelBatch {
		ws := a.get(exposed.R)
		for _, u := range batch {
			partners := tipDeltaWedges(int(u), exposed, secondary, alive, ws)
			acc := ws.acc
			for _, w := range partners {
				c := int64(acc[w])
				acc[w] = 0
				if b := c * (c - 1) / 2; b > 0 {
					s[w] -= b
					if dirty[w] == 0 {
						dirty[w] = 1
						*touched = append(*touched, w)
					}
				}
			}
			ws.touched = ws.touched[:0]
		}
		a.put(ws)
		return
	}

	wss := deltaWorkers(len(batch), threads, exposed.R, a, func(i int, ws *workspace) {
		partners := tipDeltaWedges(int(batch[i]), exposed, secondary, alive, ws)
		acc := ws.acc
		for _, w := range partners {
			c := int64(acc[w])
			acc[w] = 0
			if b := c * (c - 1) / 2; b > 0 {
				atomic.AddInt64(&s[w], -b)
				if atomic.CompareAndSwapInt32(&dirty[w], 0, 1) {
					ws.vout = append(ws.vout, w)
				}
			}
		}
		ws.touched = ws.touched[:0]
	})
	for _, ws := range wss {
		*touched = append(*touched, ws.vout...)
		ws.vout = ws.vout[:0]
		a.put(ws)
	}
}

// deltaWorkers runs item(i, ws) for every i in [0, n) on threads
// goroutines that claim items from an atomic cursor, each holding its
// own arena workspace of the given width. It returns the workspaces
// after the workers have joined: the caller merges their per-worker
// touched shares (vout/eout) — written without a lock, since the
// dirty CAS already gives every id to exactly one worker — and hands
// them back with a.put.
func deltaWorkers(n, threads, width int, a *Arena, item func(i int, ws *workspace)) []*workspace {
	wss := make([]*workspace, threads)
	for t := range wss {
		wss[t] = a.get(width)
	}
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	for _, ws := range wss {
		wg.Add(1)
		go func(ws *workspace) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				item(i, ws)
			}
		}(ws)
	}
	wg.Wait()
	return wss
}

// tipDeltaWedges accumulates the wedge multiplicities β_uw of peeled
// vertex u against every still-alive partner w into ws.acc and returns
// the touched partner list. The caller consumes and re-zeroes the
// accumulator (restoring the workspace's at-rest invariant). u itself
// is never a partner because alive[u] is already false.
func tipDeltaWedges(u int, exposed, secondary *sparse.CSR, alive []bool, ws *workspace) []int32 {
	acc := ws.acc
	partners := ws.touched[:0]
	for _, y := range exposed.Row(u) {
		for _, w := range secondary.Row(int(y)) {
			if !alive[w] {
				continue
			}
			if acc[w] == 0 {
				partners = append(partners, w)
			}
			acc[w]++
		}
	}
	ws.touched = partners
	return partners
}
