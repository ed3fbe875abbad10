package butterfly

import (
	"fmt"

	"butterfly/internal/bitvec"
	"butterfly/internal/sparse"
)

// InducedSubgraph keeps only edges whose endpoints are both enabled in
// the masks (a nil mask keeps that whole side). Vertex ids and set
// sizes are preserved — disabled vertices become isolated, matching
// the paper's mask-application semantics (equations (21)–(22)).
func (g *Graph) InducedSubgraph(keepV1, keepV2 []bool) (*Graph, error) {
	var m1, m2 *bitvec.Vector
	if keepV1 != nil {
		if len(keepV1) != g.NumV1() {
			return nil, fmt.Errorf("butterfly: keepV1 length %d, want %d", len(keepV1), g.NumV1())
		}
		m1 = bitvec.New(len(keepV1))
		for i, k := range keepV1 {
			if k {
				m1.Set(i)
			}
		}
	}
	if keepV2 != nil {
		if len(keepV2) != g.NumV2() {
			return nil, fmt.Errorf("butterfly: keepV2 length %d, want %d", len(keepV2), g.NumV2())
		}
		m2 = bitvec.New(len(keepV2))
		for i, k := range keepV2 {
			if k {
				m2.Set(i)
			}
		}
	}
	return &Graph{g: g.g.InducedSubgraph(m1, m2)}, nil
}

// FilterEdges keeps only edges for which keep returns true; vertex ids
// and set sizes are preserved.
func (g *Graph) FilterEdges(keep func(u, v int) bool) *Graph {
	return &Graph{g: g.g.FilterEdges(func(u, v int32) bool { return keep(int(u), int(v)) })}
}

// PairButterflies returns the number of butterflies whose two
// same-side vertices are exactly {a, b} on the given side: C(β, 2)
// where β is the pair's common-neighbor count. a and b must be
// distinct, valid vertices of that side.
func (g *Graph) PairButterflies(a, b int, side Side) (int64, error) {
	if err := checkSide(side); err != nil {
		return 0, err
	}
	n := g.NumV1()
	adj := g.g.Adj()
	if side == V2 {
		n = g.NumV2()
		adj = g.g.AdjT()
	}
	if a < 0 || a >= n || b < 0 || b >= n {
		return 0, fmt.Errorf("butterfly: pair (%d,%d) out of range [0,%d)", a, b, n)
	}
	if a == b {
		return 0, fmt.Errorf("butterfly: pair endpoints must be distinct")
	}
	beta := sparse.DotRows(adj, a, adj, b)
	return beta * (beta - 1) / 2, nil
}

// CommonNeighbors returns |N(a) ∩ N(b)| for two same-side vertices —
// the wedge count β the butterfly formula C(β, 2) is built from.
func (g *Graph) CommonNeighbors(a, b int, side Side) (int64, error) {
	if err := checkSide(side); err != nil {
		return 0, err
	}
	n := g.NumV1()
	adj := g.g.Adj()
	if side == V2 {
		n = g.NumV2()
		adj = g.g.AdjT()
	}
	if a < 0 || a >= n || b < 0 || b >= n {
		return 0, fmt.Errorf("butterfly: pair (%d,%d) out of range [0,%d)", a, b, n)
	}
	return sparse.DotRows(adj, a, adj, b), nil
}
