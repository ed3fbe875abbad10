package core

// The tip wedge-delta kernel for incremental peeling (ParButterfly-
// style bucketed decomposition; Shi & Shun [12], Wang et al. [13]). The
// wing engines peel on the bloom index instead (bloom.go).
//
// Round-synchronous peeling recomputes every surviving support from
// scratch each round — O(wedges of the surviving subgraph) per level.
// The kernel here inverts that: given the batch peeled this round, it
// computes the exact butterfly *decrements* of the affected neighbors
// only, so total decomposition cost is proportional to the butterflies
// destroyed rather than levels × wedges.
//
// Exactness (asserted by the quick-check suites in delta_test.go and
// internal/peel): removing an exposed-side batch B never changes the
// wedge multiplicity β_uw between two surviving exposed vertices (only
// exposed vertices leave; every secondary vertex and surviving edge
// stays). A survivor w therefore loses exactly Σ_{u∈B} C(β_uw, 2)
// butterflies — the pair terms it shared with the batch — and nothing
// else.
//
// The kernel draws scratch from a core.Arena and appends first-touched
// ids to a caller-owned buffer (deduplicated through a caller-owned
// dirty-mark array), so steady-state peeling rounds allocate nothing on
// the sequential path (TestTipDeltaSteadyStateZeroAlloc).
//
// Parallel rounds share nothing writable while they run: each worker
// subtracts into the private per-vertex partial vector of its arena
// workspace (zero at rest) and records the ids it touches first in its
// own share (vout). After the join one merge (mergePartials) adds the
// partials into the shared vector, re-zeroes them and deduplicates the
// touched ids through dirty, so the inner loops carry no atomic
// operation and no two workers contend for a cache line of counts. A
// worker's partial vector costs 8 B per vertex; the engines clamp
// threads to GOMAXPROCS, which bounds the total.

import (
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
// worker goroutines that subtract into private partial vectors, merged
// into s after the join; results are identical to the sequential path
// (the decrement multiset is the same).
func TipDeltaBatch(g *graph.Bipartite, side Side, batch []int64, alive []bool, s []int64, dirty []int32, touched *[]int64, threads int, a *Arena) {
	if len(batch) == 0 {
		return
	}
	exposed, secondary := vertexOrient(g, side)
	n := exposed.R
	if threads > len(batch) {
		threads = len(batch)
	}
	if threads <= 1 || len(batch) < minDeltaParallelBatch {
		ws := a.get(n)
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
						*touched = append(*touched, int64(w))
					}
				}
			}
			ws.touched = ws.touched[:0]
		}
		a.put(ws)
		return
	}

	wss := runWorkers(len(batch), threads, n, a, func(i int, ws *workspace) {
		partners := tipDeltaWedges(int(batch[i]), exposed, secondary, alive, ws)
		acc, part := ws.acc, ws.partial(n)
		for _, w := range partners {
			c := int64(acc[w])
			acc[w] = 0
			if b := c * (c - 1) / 2; b > 0 {
				if part[w] == 0 {
					ws.vout = append(ws.vout, w)
				}
				part[w] -= b
			}
		}
		ws.touched = ws.touched[:0]
	})
	for _, ws := range wss {
		mergePartials(s, ws.part, ws.vout, dirty, touched)
		ws.vout = ws.vout[:0]
		a.put(ws)
	}
}

// mergePartials adds one worker's partial decrements at ids — the ids
// it touched first — into vals and re-zeroes them, appending each id
// whose dirty mark is still clear to *touched. Called once per worker
// after the join, so the marks need no atomics.
func mergePartials(vals, part []int64, ids []int32, dirty []int32, touched *[]int64) {
	for _, id := range ids {
		vals[id] += part[id]
		part[id] = 0
		if dirty[id] == 0 {
			dirty[id] = 1
			*touched = append(*touched, int64(id))
		}
	}
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
