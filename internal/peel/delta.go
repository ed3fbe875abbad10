package peel

// The incremental (delta) peeling engine: bucketed tip/wing
// decomposition driven by the wedge-delta kernels of internal/core.
//
// Structure of every engine below:
//
//  1. compute the initial support vector once (parallel, arena-backed);
//  2. file everything into a bucketQueue, a monotone radix heap in
//     which an entry moves at most 64 times and an extraction scans at
//     most 65 buckets plus the entries it moves or discards (or into a
//     worklist for the k-core style fixpoints, which need no levels);
//  3. repeatedly extract the lowest bucket as a batch and apply
//     core.TipDeltaBatch / core.WingStateDeltaBatch, which decrement
//     only the supports the batch actually changed;
//  4. re-file the touched survivors and continue.
//
// Total work is O(initial count + Σ butterfly-side deltas) instead of
// the recount engine's O(levels × wedges of the surviving subgraph).
// Peeling is confluent, so the results equal the recount engine's bit
// for bit (asserted by the differential tests in delta_test.go).

import (
	"butterfly/internal/core"
	"butterfly/internal/graph"
)

// tipDecompositionDelta computes the same tip numbers as
// tipDecompositionRecount with the incremental engine and reports the number of peeled batches (sub-rounds). The
// optional stage hook receives "peel.seed" and per-batch
// "peel.round[i]".
func tipDecompositionDelta(g *graph.Bipartite, side core.Side, threads int, stage stageFunc) ([]int64, int) {
	n := g.NumV1()
	if side == core.SideV2 {
		n = g.NumV2()
	}
	tip := make([]int64, n)
	if n == 0 {
		return tip, 0
	}
	arena := core.NewArena()
	s := make([]int64, n)
	t0 := stageNow(stage)
	core.VertexButterfliesMaskedInto(s, g, side, nil, threads, arena)
	emitStage(stage, "peel.seed", t0)

	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	q := newBucketQueue(s, alive)
	dirty := make([]int32, n)
	var (
		batch   = make([]int64, 0, 256)
		batch32 = make([]int32, 0, 256)
		touched = make([]int32, 0, 256)
		level   int64
		rounds  int
	)
	for {
		rt := stageNow(stage)
		var lvl int64
		var ok bool
		batch, lvl, ok = q.nextBatch(batch[:0], alive)
		if !ok {
			break
		}
		rounds++
		if lvl > level {
			level = lvl
		}
		batch32 = batch32[:0]
		for _, id := range batch {
			tip[id] = level
			batch32 = append(batch32, int32(id))
		}
		touched = touched[:0]
		core.TipDeltaBatch(g, side, batch32, alive, s, dirty, &touched, threads, arena)
		for _, w := range touched {
			dirty[w] = 0
			if s[w] < 0 {
				s[w] = 0
			}
			q.update(int64(w))
		}
		emitRound(stage, rounds-1, rt)
	}
	return tip, rounds
}

// kTipDelta computes the k-tip subgraph with the incremental engine:
// instead of recomputing the butterfly vector to a fixpoint, it seeds a
// worklist with the vertices below k and cascades exact decrements
// until no survivor drops below the threshold. Returns the subgraph
// (identical to kTipRecount's) and the number of cascade rounds.
func kTipDelta(g *graph.Bipartite, k int64, side core.Side, threads int, stage stageFunc) (*graph.Bipartite, int) {
	n := g.NumV1()
	if side == core.SideV2 {
		n = g.NumV2()
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	if n == 0 || k <= 0 {
		return maskSide(g, side, alive), 0
	}
	arena := core.NewArena()
	s := make([]int64, n)
	t0 := stageNow(stage)
	core.VertexButterfliesMaskedInto(s, g, side, nil, threads, arena)
	emitStage(stage, "peel.seed", t0)

	dirty := make([]int32, n)
	var (
		cur     = make([]int32, 0, 256)
		next    = make([]int32, 0, 256)
		touched = make([]int32, 0, 256)
		rounds  int
	)
	for u := range s {
		if s[u] < k {
			alive[u] = false
			cur = append(cur, int32(u))
		}
	}
	for len(cur) > 0 {
		rt := stageNow(stage)
		rounds++
		touched = touched[:0]
		core.TipDeltaBatch(g, side, cur, alive, s, dirty, &touched, threads, arena)
		next = next[:0]
		for _, w := range touched {
			dirty[w] = 0
			if s[w] < k {
				alive[w] = false
				next = append(next, w)
			}
		}
		cur, next = next, cur
		emitRound(stage, rounds-1, rt)
	}
	return maskSide(g, side, alive), rounds
}

// wingDecompositionDelta computes the same wing numbers as
// wingDecompositionRecount with the incremental engine. Edge ids are flat indices into g.Adj(), as everywhere else.
// Unlike the recount engine it never rebuilds the graph: peeled edges
// are swap-deleted from the compacted core.WingPeelState, so each
// batch's sweep touches only the surviving adjacency.
func wingDecompositionDelta(g *graph.Bipartite, threads int, stage stageFunc) ([]int64, int) {
	adj := g.Adj()
	nnz := int(adj.NNZ())
	wing := make([]int64, nnz)
	if nnz == 0 {
		return wing, 0
	}
	arena := core.NewArena()
	sup := make([]int64, nnz)
	t0 := stageNow(stage)
	core.EdgeSupportInto(sup, g, threads, arena)
	emitStage(stage, "peel.seed", t0)
	state := core.NewWingPeelState(g)

	alive := make([]bool, nnz)
	for i := range alive {
		alive[i] = true
	}
	inBatch := make([]bool, nnz)
	dirty := make([]int32, nnz)
	q := newBucketQueue(sup, alive)
	var (
		batch   = make([]int64, 0, 256)
		touched = make([]int64, 0, 256)
		level   int64
		rounds  int
	)
	for {
		rt := stageNow(stage)
		var lvl int64
		var ok bool
		batch, lvl, ok = q.nextBatch(batch[:0], alive)
		if !ok {
			break
		}
		rounds++
		if lvl > level {
			level = lvl
		}
		for _, e := range batch {
			wing[e] = level
			inBatch[e] = true
		}
		touched = touched[:0]
		core.WingStateDeltaBatch(state, batch, alive, inBatch, sup, dirty, &touched, threads, arena)
		for _, e := range batch {
			inBatch[e] = false
			state.RemoveEdge(e)
		}
		for _, f := range touched {
			dirty[f] = 0
			if sup[f] < 0 {
				sup[f] = 0
			}
			q.update(f)
		}
		emitRound(stage, rounds-1, rt)
	}
	return wing, rounds
}

// kWingDelta computes the k-wing subgraph with the incremental engine:
// one support sweep, then exact cascading decrements, then a single
// subgraph rebuild at the end (the recount engine rebuilds the whole
// graph every round). Identical to kWingRecount's; returns the cascade
// round count.
func kWingDelta(g *graph.Bipartite, k int64, threads int, stage stageFunc) (*graph.Bipartite, int) {
	adj := g.Adj()
	nnz := int(adj.NNZ())
	if nnz == 0 || k <= 0 {
		return g, 0
	}
	arena := core.NewArena()
	sup := make([]int64, nnz)
	t0 := stageNow(stage)
	core.EdgeSupportInto(sup, g, threads, arena)
	emitStage(stage, "peel.seed", t0)
	state := core.NewWingPeelState(g)

	alive := make([]bool, nnz)
	for i := range alive {
		alive[i] = true
	}
	inBatch := make([]bool, nnz)
	dirty := make([]int32, nnz)
	var (
		cur     = make([]int64, 0, 256)
		next    = make([]int64, 0, 256)
		touched = make([]int64, 0, 256)
		rounds  int
	)
	for e := 0; e < nnz; e++ {
		if sup[e] < k {
			alive[e] = false
			inBatch[e] = true
			cur = append(cur, int64(e))
		}
	}
	for len(cur) > 0 {
		rt := stageNow(stage)
		rounds++
		touched = touched[:0]
		core.WingStateDeltaBatch(state, cur, alive, inBatch, sup, dirty, &touched, threads, arena)
		for _, e := range cur {
			inBatch[e] = false
			state.RemoveEdge(e)
		}
		next = next[:0]
		for _, f := range touched {
			dirty[f] = 0
			if alive[f] && sup[f] < k {
				alive[f] = false
				inBatch[f] = true
				next = append(next, f)
			}
		}
		cur, next = next, cur
		emitRound(stage, rounds-1, rt)
	}
	return graphFromAliveEdges(g, alive), rounds
}

// graphFromAliveEdges rebuilds a bipartite graph keeping only the edges
// whose flat id is still alive, preserving dimensions and vertex ids.
func graphFromAliveEdges(g *graph.Bipartite, alive []bool) *graph.Bipartite {
	adj := g.Adj()
	var kept int64
	for _, a := range alive {
		if a {
			kept++
		}
	}
	if kept == adj.NNZ() {
		return g
	}
	b := graph.NewBuilder(adj.R, adj.C)
	for u := 0; u < adj.R; u++ {
		base := adj.Ptr[u]
		for kk, v := range adj.Row(u) {
			if alive[base+int64(kk)] {
				b.AddEdge(u, int(v))
			}
		}
	}
	return b.Build()
}
