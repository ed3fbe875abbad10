package peel

import (
	"butterfly/internal/bitvec"
	"butterfly/internal/core"
	"butterfly/internal/graph"
)

// KTipLookAhead computes the k-tip with the fused look-ahead
// algorithm of Fig 8 (KTIP_UNB_VAR1): while sweeping the exposed side,
// each vertex's butterfly count σ_u is completed in place (earlier
// vertices credited it; the sweep adds its pairs with later active
// vertices), and the mask bit μ_u = (σ_u ≥ k) is applied immediately,
// so later iterations of the same sweep already skip peeled vertices.
// Sweeps repeat until none removes a vertex. Peeling is confluent —
// removal order does not change the maximal fixpoint — so the result
// equals the recount engine's k-tip, recountBelow (asserted by tests).
func KTipLookAhead(g *graph.Bipartite, k int64, side core.Side) *graph.Bipartite {
	exposed, secondary := g.Adj(), g.AdjT()
	if side == core.SideV2 {
		exposed, secondary = g.AdjT(), g.Adj()
	}
	n := exposed.R
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	sigma := make([]int64, n)
	acc := make([]int32, n)
	touched := make([]int32, 0, 1024)

	for {
		changed := false
		for i := range sigma {
			sigma[i] = 0
		}
		for u := 0; u < n; u++ {
			if !active[u] {
				continue
			}
			u32 := int32(u)
			// Partial update: pairs (u, w) with w > u, both active.
			for _, y := range exposed.Row(u) {
				for _, w := range secondary.Row(int(y)) {
					if w <= u32 {
						continue
					}
					if !active[w] {
						continue
					}
					if acc[w] == 0 {
						touched = append(touched, w)
					}
					acc[w]++
				}
			}
			for _, w := range touched {
				c := int64(acc[w])
				b := c * (c - 1) / 2
				sigma[u] += b // completes σ_u: pairs with w < u arrived earlier
				sigma[w] += b // look-ahead credit for the future vertex
				acc[w] = 0
			}
			touched = touched[:0]
			// σ_u is now final for this sweep: mask immediately.
			if sigma[u] < k {
				active[u] = false
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return maskSide(g, side, active)
}

// maskSide zeroes the edges of inactive vertices on the chosen side.
func maskSide(g *graph.Bipartite, side core.Side, active []bool) *graph.Bipartite {
	keep := bitvec.New(len(active))
	for i, a := range active {
		if a {
			keep.Set(i)
		}
	}
	if side == core.SideV1 {
		return g.InducedSubgraph(keep, nil)
	}
	return g.InducedSubgraph(nil, keep)
}
