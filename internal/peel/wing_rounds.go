package peel

import (
	"sort"

	"butterfly/internal/core"
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

// kWingRecount returns the k-wing of g: the maximal subgraph in which
// every remaining edge is contained in at least k butterflies. It runs
// the paper's iterative formulation (25)–(27): compute the support
// matrix S_w on `threads` workers, keep edges with support ≥ k (the
// mask M of (26) applied as the Hadamard product (27)), and repeat to a
// fixpoint. The rounds share one value buffer and one core.Arena, so
// each iteration's support sweep reuses the previous round's scratch.
// This is the recount engine's k-wing, checked against dense.SpecKWing
// and kept as the oracle for kWingDelta. It also reports the number of
// fixpoint rounds.
func kWingRecount(g *graph.Bipartite, k int64, threads int, stage stageFunc) (*graph.Bipartite, int) {
	arena := core.NewArena()
	valsBuf := make([]int64, g.NumEdges())
	cur := g
	rounds := 0
	for {
		rt := stageNow(stage)
		rounds++
		sw := core.EdgeSupportInto(valsBuf, cur, threads, arena)
		kept := sparse.PatternOf(sparse.Select(sw, func(_ int, _ int32, v int64) bool {
			return v >= k
		}))
		if kept.NNZ() == cur.NumEdges() {
			emitRound(stage, rounds-1, rt)
			return cur, rounds
		}
		next, err := graph.FromCSR(kept)
		if err != nil {
			panic("peel: internal error rebuilding k-wing graph: " + err.Error())
		}
		cur = next
		emitRound(stage, rounds-1, rt)
	}
}

// wingDecompositionRecount computes the wing number of every edge of
// g — the largest k such that the edge survives in the k-wing — in the
// flat CSR edge order of g.Adj() (edge id = Ptr[u] + offset), with
// round-synchronous peeling: every round removes all edges whose
// current support is at or below the running level, then recomputes
// supports of the surviving subgraph with `threads` workers.
// Confluence makes the result identical to the delta engine's
// (asserted by tests). Removed edges keep their original ids across
// rounds via an explicit id map.
//
// This is the recount engine — every round rebuilds the surviving
// subgraph and recomputes all supports — kept as the oracle for the
// incremental wingDecompositionDelta. It reports the number of
// peeling rounds.
func wingDecompositionRecount(g *graph.Bipartite, threads int, stage stageFunc) ([]int64, int) {
	orig := g.Adj()
	wing := make([]int64, orig.NNZ())

	cur := g
	// ids[k] = original flat id of the k-th surviving edge of cur.
	ids := make([]int64, orig.NNZ())
	for i := range ids {
		ids[i] = int64(i)
	}

	arena := core.NewArena()
	valsBuf := make([]int64, orig.NNZ())

	var level int64
	rounds := 0
	for cur.NumEdges() > 0 {
		rt := stageNow(stage)
		rounds++
		sup := core.EdgeSupportInto(valsBuf, cur, threads, arena)
		min := int64(-1)
		for _, v := range sup.Val {
			if min < 0 || v < min {
				min = v
			}
		}
		if min > level {
			level = min
		}

		adj := cur.Adj()
		keep := make([]bool, adj.NNZ())
		nextIDs := ids[:0:0]
		removedAny := false
		for e, v := range sup.Val {
			if v <= level {
				wing[ids[e]] = level
				removedAny = true
				continue
			}
			keep[e] = true
			nextIDs = append(nextIDs, ids[e])
		}
		if !removedAny {
			// Cannot happen: min ≤ level always peels at least one edge.
			panic("peel: wing rounds made no progress")
		}
		kept := sparse.PatternOf(sparse.Select(adj, func(i int, j int32, _ int64) bool {
			e, ok := edgeID(adj, i, j)
			return ok && keep[e]
		}))
		next, err := graph.FromCSR(kept)
		if err != nil {
			panic("peel: internal error rebuilding graph: " + err.Error())
		}
		cur = next
		ids = nextIDs
		emitRound(stage, rounds-1, rt)
	}
	return wing, rounds
}

// edgeID returns the flat edge index of (u, v), if present.
func edgeID(a *sparse.CSR, u int, v int32) (int64, bool) {
	row := a.Row(u)
	k := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	if k < len(row) && row[k] == v {
		return a.Ptr[u] + int64(k), true
	}
	return 0, false
}
