package peel

import (
	"butterfly/internal/core"
	"butterfly/internal/graph"
)

// tipDecompositionRecount computes the tip number of every vertex on
// the given side — the largest k such that the vertex survives in the
// k-tip; isolated or butterfly-free vertices get 0 — with
// round-synchronous peeling: every round removes *all* vertices whose
// current butterfly count is at or below the running level and
// recomputes the survivors' counts with `threads` workers. This is the
// bulk-parallel peeling structure of ParButterfly [12]; peeling is
// confluent, so the tip numbers equal the delta engine's bit for bit
// (asserted by tests).
//
// Each round costs O(wedges of the surviving subgraph), so total work
// is O(levels × wedges), but the structure is trivial: this is the
// "recount" engine, kept as the differential-testing oracle for the
// incremental delta engine (tipDecompositionDelta). All rounds share
// one output buffer and one core.Arena, so the loop's steady state
// allocates nothing (see TestTipRoundsArenaZeroAlloc). It reports the
// number of peeling rounds; the optional stage hook receives per-round
// "peel.round[i]" timings.
func tipDecompositionRecount(g *graph.Bipartite, side core.Side, threads int, stage stageFunc) ([]int64, int) {
	n := g.NumV1()
	if side == core.SideV2 {
		n = g.NumV2()
	}
	active := make([]bool, n)
	remaining := 0
	for i := range active {
		active[i] = true
		remaining++
	}
	tip := make([]int64, n)
	var level int64
	rounds := 0

	arena := core.NewArena()
	s := make([]int64, n)
	for remaining > 0 {
		rt := stageNow(stage)
		rounds++
		core.VertexButterfliesMaskedInto(s, g, side, active, threads, arena)
		// Find the minimum count among active vertices.
		min := int64(-1)
		for u, a := range active {
			if a && (min < 0 || s[u] < min) {
				min = s[u]
			}
		}
		if min > level {
			level = min
		}
		// Peel everything at or below the level.
		for u, a := range active {
			if a && s[u] <= level {
				tip[u] = level
				active[u] = false
				remaining--
			}
		}
		emitRound(stage, rounds-1, rt)
	}
	return tip, rounds
}

// kTipRecount returns the k-tip of g with respect to the given side:
// the maximal subgraph in which every (non-isolated) vertex of that
// side participates in at least k butterflies. It executes the paper's
// iterative formulation (19)–(22): compute the per-vertex butterfly
// vector s on `threads` workers, mask out vertices with s < k, and
// repeat until a fixpoint. Removed vertices keep their ids but lose
// all edges (the paper's mask-application semantics). This is the
// recount engine's k-tip, checked against dense.SpecKTip and kept as
// the oracle for kTipDelta. It also reports the number of fixpoint
// rounds.
func kTipRecount(g *graph.Bipartite, k int64, side core.Side, threads int, stage stageFunc) (*graph.Bipartite, int) {
	n := g.NumV1()
	if side == core.SideV2 {
		n = g.NumV2()
	}
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	arena := core.NewArena()
	s := make([]int64, n)
	rounds := 0
	for {
		rt := stageNow(stage)
		rounds++
		core.VertexButterfliesMaskedInto(s, g, side, active, threads, arena)
		changed := false
		for u := range active {
			if active[u] && s[u] < k {
				active[u] = false
				changed = true
			}
		}
		emitRound(stage, rounds-1, rt)
		if !changed {
			break
		}
	}
	return maskSide(g, side, active), rounds
}
