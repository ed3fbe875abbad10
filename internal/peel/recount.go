package peel

import "butterfly/internal/graph"

// recountLevels computes the same peel numbers as deltaLevels with
// round-synchronous peeling: every round recounts the supports of the
// surviving ids with the kind's recount, then removes *all* ids whose
// support is at or below the running level. This is the bulk-parallel
// peeling structure of ParButterfly [12]; peeling is confluent, so the
// numbers equal the delta engine's bit for bit (asserted by tests).
//
// Each round costs O(wedges of the surviving subgraph), so total work
// is O(levels × wedges), but the structure is trivial: this is the
// "recount" engine, kept as the differential-testing oracle for the
// delta engine. It reports the number of rounds; the optional stage
// hook receives per-round "peel.round[i]" timings.
func recountLevels(p kind, stage stageFunc) ([]int64, int) {
	num := make([]int64, p.n)
	alive := allAlive(p.n)
	sup := make([]int64, p.n)
	var level int64
	rounds := 0
	for remaining := p.n; remaining > 0; {
		rt := stageNow(stage)
		rounds++
		p.recount(alive, sup)
		low := int64(-1)
		for id, a := range alive {
			if a && (low < 0 || sup[id] < low) {
				low = sup[id]
			}
		}
		level = max(level, low)
		for id, a := range alive {
			if a && sup[id] <= level {
				num[id] = level
				alive[id] = false
				remaining--
			}
		}
		emitRound(stage, rounds-1, rt)
	}
	return num, rounds
}

// recountBelow runs the paper's iterative formulation — (19)–(22) for
// tips, (25)–(27) for wings: recount the supports of the surviving ids,
// mask out those below k, and repeat until a round masks nothing.
// Removed vertices keep their ids but lose all edges (the paper's
// mask-application semantics). Checked against dense.SpecKTip and
// dense.SpecKWing, and kept as the oracle for deltaBelow; it also
// reports the number of fixpoint rounds.
func recountBelow(p kind, k int64, stage stageFunc) (*graph.Bipartite, int) {
	alive := allAlive(p.n)
	sup := make([]int64, p.n)
	rounds := 0
	for {
		rt := stageNow(stage)
		rounds++
		p.recount(alive, sup)
		changed := false
		for id, a := range alive {
			if a && sup[id] < k {
				alive[id] = false
				changed = true
			}
		}
		emitRound(stage, rounds-1, rt)
		if !changed {
			return p.keep(alive), rounds
		}
	}
}
