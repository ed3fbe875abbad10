package peel

// The incremental (delta) peeling engine: bucketed tip/wing
// decomposition driven by exact support decrements from internal/core.
//
// Structure of every engine below:
//
//  1. compute the initial support vector once, in the "peel.seed"
//     stage: the per-vertex sweep for tips; for wings, the
//     core.BloomIndex build (parallel, arena-backed), whose blooms
//     yield every edge's support;
//  2. file everything into a bucketQueue, a monotone radix heap in
//     which an entry moves at most 64 times and an extraction scans at
//     most 65 buckets plus the entries it moves or discards (or into a
//     worklist for the k-core style fixpoints, which need no levels);
//  3. repeatedly extract the lowest bucket as a batch and apply
//     core.TipDeltaBatch (tips) or BloomIndex.PeelRound (wings, one
//     thread, closed-form per damaged bloom), which decrement only the
//     supports the batch actually changed;
//  4. re-file the touched survivors and continue.
//
// Total work is O(initial count + Σ butterfly-side deltas) instead of
// the recount engine's O(levels × wedges of the surviving subgraph).
// Decrements are exact, so the wing engines never clamp a support;
// the tip engine still clamps at zero.
// Peeling is confluent, so the results equal the recount engine's bit
// for bit (asserted by the differential tests in delta_test.go).

import (
	"butterfly/internal/core"
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
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
// wingDecompositionRecount with the incremental engine. Edge ids are
// flat indices into g.Adj(), as everywhere else. It never rebuilds the
// graph: each batch updates only the blooms of the core.BloomIndex that
// its edges damage, in closed form.
func wingDecompositionDelta(g *graph.Bipartite, threads int, stage stageFunc) ([]int64, int) {
	return wingPeel(g, threads, stage, nil)
}

// wingPeel is wingDecompositionDelta with a hook that, when non-nil,
// sees the index, liveness and supports after every round.
func wingPeel(g *graph.Bipartite, threads int, stage stageFunc, after func(x *core.BloomIndex, alive []bool, sup []int64)) ([]int64, int) {
	nnz := int(g.NumEdges())
	wing := make([]int64, nnz)
	if nnz == 0 {
		return wing, 0
	}
	sup := make([]int64, nnz)
	t0 := stageNow(stage)
	index := core.NewBloomIndex(g, threads, nil)
	index.SupportsInto(sup)
	emitStage(stage, "peel.seed", t0)

	alive := make([]bool, nnz)
	for i := range alive {
		alive[i] = true
	}
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
		}
		touched = touched[:0]
		index.PeelRound(batch, alive, sup, dirty, &touched)
		for _, f := range touched {
			dirty[f] = 0
			q.update(f)
		}
		if after != nil {
			after(index, alive, sup)
		}
		emitRound(stage, rounds-1, rt)
	}
	return wing, rounds
}

// kWingDelta computes the k-wing subgraph with the incremental engine:
// one index build, then exact cascading decrements, then a single
// subgraph rebuild at the end (the recount engine rebuilds the whole
// graph every round). Identical to kWingRecount's; returns the cascade
// round count.
func kWingDelta(g *graph.Bipartite, k int64, threads int, stage stageFunc) (*graph.Bipartite, int) {
	nnz := int(g.NumEdges())
	if nnz == 0 || k <= 0 {
		return g, 0
	}
	sup := make([]int64, nnz)
	t0 := stageNow(stage)
	index := core.NewBloomIndex(g, threads, nil)
	index.SupportsInto(sup)
	emitStage(stage, "peel.seed", t0)

	alive := make([]bool, nnz)
	for i := range alive {
		alive[i] = true
	}
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
			cur = append(cur, int64(e))
		}
	}
	for len(cur) > 0 {
		rt := stageNow(stage)
		rounds++
		touched = touched[:0]
		index.PeelRound(cur, alive, sup, dirty, &touched)
		next = next[:0]
		for _, f := range touched {
			dirty[f] = 0
			if alive[f] && sup[f] < k {
				alive[f] = false
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
// The kept edges are copied row by row into an exactly sized CSR, so
// rows stay sorted and no edge list is sorted again.
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
	out := &sparse.CSR{R: adj.R, C: adj.C, Ptr: make([]int64, adj.R+1), Col: make([]int32, 0, kept)}
	for u := 0; u < adj.R; u++ {
		base := adj.Ptr[u]
		for kk, v := range adj.Row(u) {
			if alive[base+int64(kk)] {
				out.Col = append(out.Col, v)
			}
		}
		out.Ptr[u+1] = int64(len(out.Col))
	}
	h, err := graph.FromCSR(out)
	if err != nil {
		panic("peel: internal error rebuilding k-wing graph: " + err.Error())
	}
	return h
}
