package peel

import (
	"butterfly/internal/bitvec"
	"butterfly/internal/core"
	"butterfly/internal/graph"
)

// DensestResult describes the subgraph found by DensestByButterflies.
type DensestResult struct {
	// Keep marks the surviving vertices of the peeled side; feed it to
	// Graph.InducedSubgraph (root package) to materialize the subgraph.
	Keep []bool
	// Butterflies and Vertices of the best prefix; Density is their
	// ratio.
	Butterflies int64
	Vertices    int
	Density     float64
}

// DensestByButterflies extracts a subgraph maximizing butterflies per
// retained vertex of the chosen side, with the classic greedy-peeling
// scheme: repeatedly remove the vertex in the fewest butterflies
// (exactly the tip-decomposition order) and remember the moment the
// running density Ξ/|active| peaked. For the clique-like dense regions
// the paper's abstract motivates, greedy peeling of a supermodular
// density objective gives the usual constant-factor guarantee; on a
// planted biclique it recovers the block exactly (tested).
func DensestByButterflies(g *graph.Bipartite, side core.Side) DensestResult {
	exposed := g.Adj()
	if side == core.SideV2 {
		exposed = g.AdjT()
	}
	n := exposed.R

	active := make([]bool, n)
	activeCount := 0
	for i := range active {
		if exposed.RowDeg(i) > 0 {
			active[i] = true
			activeCount++
		}
	}
	res := DensestResult{Keep: make([]bool, n)}
	if activeCount == 0 {
		return res
	}

	arena := core.NewArena()
	s := make([]int64, n)
	core.VertexButterfliesMaskedInto(s, g, side, active, 1, arena)
	var total int64
	for _, v := range s {
		total += v
	}
	total /= 2 // each butterfly credited at both same-side vertices

	removed := make([]bool, n)
	h := newLazyMin(s)
	// Track the best density over the peeling trajectory; order of
	// removal is the tip-decomposition order.
	order := make([]int32, 0, activeCount)
	best := float64(total) / float64(activeCount)
	bestStep := 0 // number of removals at the best prefix
	if total == 0 {
		best = 0
	}

	dirty := make([]int32, n)
	batch := make([]int64, 1)
	touched := make([]int64, 0, 1024)
	step := 0
	for {
		_, id, ok := h.popCurrent(s, removed)
		if !ok {
			break
		}
		u := int(id)
		removed[u] = true
		if !active[u] {
			continue
		}
		// Remove u: its still-active partners lose their pair terms.
		active[u] = false
		order = append(order, int32(u))
		total -= s[u]
		activeCount--
		step++

		batch[0] = id
		core.TipDeltaBatch(g, side, batch, active, s, dirty, &touched, 1, arena)
		for _, w := range touched {
			dirty[w] = 0
			h.push(s[w], w)
		}
		touched = touched[:0]

		if activeCount > 0 {
			if d := float64(total) / float64(activeCount); d > best {
				best = d
				bestStep = step
			}
		}
	}

	// Reconstruct the best prefix: everything not among the first
	// bestStep removals (and not isolated at the start).
	for i := range res.Keep {
		res.Keep[i] = exposed.RowDeg(i) > 0
	}
	for _, u := range order[:bestStep] {
		res.Keep[u] = false
	}
	res.Vertices = 0
	for _, k := range res.Keep {
		if k {
			res.Vertices++
		}
	}
	res.Butterflies = countKept(g, side, res.Keep)
	if res.Vertices > 0 {
		res.Density = float64(res.Butterflies) / float64(res.Vertices)
	}
	return res
}

// countKept counts butterflies of the side-masked subgraph.
func countKept(g *graph.Bipartite, side core.Side, keep []bool) int64 {
	bv := bitvec.New(len(keep))
	for i, k := range keep {
		if k {
			bv.Set(i)
		}
	}
	var h *graph.Bipartite
	if side == core.SideV1 {
		h = g.InducedSubgraph(bv, nil)
	} else {
		h = g.InducedSubgraph(nil, bv)
	}
	return core.CountAuto(h)
}
