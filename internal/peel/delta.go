package peel

// The incremental (delta) peeling engine: two loops, each run by both
// kinds of peel (kind.go).
//
//  1. The kind's seed computes the initial supports once, in the
//     "peel.seed" stage: the per-vertex sweep for tips; for wings, the
//     core.BloomIndex build (parallel, arena-backed), whose blooms
//     yield every edge's support.
//  2. deltaLevels files every id into a bucketQueue, a monotone radix
//     heap in which an entry moves at most 64 times and an extraction
//     scans at most 65 buckets plus the entries it moves or discards;
//     deltaBelow seeds a worklist with the ids below k instead, since a
//     k-subgraph needs no levels.
//  3. Each round applies the seed's exact batch decrement —
//     core.TipDeltaBatch for tips, BloomIndex.PeelRound (one thread,
//     closed form per damaged bloom) for wings — which changes only the
//     supports the batch actually lowers, and re-files or re-checks the
//     touched survivors.
//
// Total work is O(initial count + Σ butterfly-side deltas) instead of
// the recount engine's O(levels × wedges of the surviving subgraph).
// Peeling is confluent, so the results equal the recount engine's bit
// for bit (asserted by the differential tests in delta_test.go).

import "butterfly/internal/graph"

// deltaLevels computes every id's peel number — the largest k whose
// k-subgraph keeps it — by bucketed peeling, and reports the number of
// peeled batches (sub-rounds). The optional stage hook receives
// "peel.seed" and per-batch "peel.round[i]".
func deltaLevels(p kind, stage stageFunc) ([]int64, int) {
	num := make([]int64, p.n)
	if p.n == 0 {
		return num, 0
	}
	sup := make([]int64, p.n)
	t0 := stageNow(stage)
	dec := p.seed(sup)
	emitStage(stage, "peel.seed", t0)

	alive := allAlive(p.n)
	q := newBucketQueue(sup, alive)
	dirty := make([]int32, p.n)
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
		level = max(level, lvl)
		for _, id := range batch {
			num[id] = level
		}
		touched = touched[:0]
		dec(batch, alive, sup, dirty, &touched)
		for _, id := range touched {
			dirty[id] = 0
			q.update(id)
		}
		emitRound(stage, rounds-1, rt)
	}
	return num, rounds
}

// deltaBelow computes the subgraph left when every id whose support is
// below k is peeled, to the fixpoint: it seeds a worklist with the
// ids below k and cascades exact decrements until no survivor drops
// below it, then builds the subgraph once. Returns the subgraph
// (identical to recountBelow's) and the number of cascade rounds.
func deltaBelow(p kind, k int64, stage stageFunc) (*graph.Bipartite, int) {
	alive := allAlive(p.n)
	if p.n == 0 || k <= 0 {
		return p.keep(alive), 0
	}
	sup := make([]int64, p.n)
	t0 := stageNow(stage)
	dec := p.seed(sup)
	emitStage(stage, "peel.seed", t0)

	dirty := make([]int32, p.n)
	var (
		cur     = make([]int64, 0, 256)
		next    = make([]int64, 0, 256)
		touched = make([]int64, 0, 256)
		rounds  int
	)
	for id, s := range sup {
		if s < k {
			alive[id] = false
			cur = append(cur, int64(id))
		}
	}
	for len(cur) > 0 {
		rt := stageNow(stage)
		rounds++
		touched = touched[:0]
		dec(cur, alive, sup, dirty, &touched)
		next = next[:0]
		for _, id := range touched {
			dirty[id] = 0
			if alive[id] && sup[id] < k {
				alive[id] = false
				next = append(next, id)
			}
		}
		cur, next = next, cur
		emitRound(stage, rounds-1, rt)
	}
	return p.keep(alive), rounds
}
