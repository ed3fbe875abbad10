package butterfly

import (
	"fmt"

	"butterfly/internal/sparse"
)

// WeightedPair is one edge of a one-mode projection: two same-side
// vertices and the number of opposite-side neighbors they share (the
// wedge count β of the butterfly formula).
type WeightedPair struct {
	A, B   int
	Shared int64
}

// Project returns the one-mode projection of the graph onto the chosen
// side: every pair of same-side vertices with at least minShared
// common neighbors, with its common-neighbor count. Pairs are emitted
// with A < B in lexicographic order.
//
// This is the off-diagonal of B = AAᵀ (the paper's wedge matrix),
// computed with the sparse substrate; minShared ≥ 2 keeps exactly the
// pairs that form at least one butterfly — C(Shared, 2) of them, per
// PairButterflies. The projection is Θ(connected pairs); on hub-heavy
// graphs that can be quadratic in the side size, so filter early with
// minShared.
func (g *Graph) Project(side Side, minShared int64) ([]WeightedPair, error) {
	if minShared < 1 {
		return nil, fmt.Errorf("butterfly: minShared must be ≥ 1, got %d", minShared)
	}
	if err := checkSide(side); err != nil {
		return nil, err
	}
	adj, adjT := g.g.Adj(), g.g.AdjT()
	if side == V2 {
		adj, adjT = adjT, adj
	}
	b := sparse.MxM(adj, adjT)
	var out []WeightedPair
	for a := 0; a < b.R; a++ {
		row := b.Row(a)
		vals := b.RowVals(a)
		for k, j := range row {
			if int(j) <= a {
				continue // strictly upper triangle: A < B, each pair once
			}
			if vals[k] >= minShared {
				out = append(out, WeightedPair{A: a, B: int(j), Shared: vals[k]})
			}
		}
	}
	return out, nil
}
