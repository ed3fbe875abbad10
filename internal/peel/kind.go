package peel

import (
	"butterfly/internal/core"
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

// kind is what the four peel loops peel: ids 0..n-1 with a butterfly
// support each — the vertices of one side for tips, the flat edge ids
// of g.Adj() (edge id = Ptr[u] + offset) for wings. The loops never
// ask which kind they hold.
type kind struct {
	// n is the id count.
	n int
	// seed fills sup with every id's support in the whole graph and
	// returns the exact batch decrement of the delta engine.
	seed func(sup []int64) decFunc
	// recount overwrites sup[id] for every alive id with its support in
	// the subgraph the alive ids leave.
	recount func(alive []bool, sup []int64)
	// keep builds the subgraph the alive ids leave, with g's dimensions
	// and vertex ids.
	keep func(alive []bool) *graph.Bipartite
}

// decFunc subtracts from sup the support every surviving id lost when
// batch was peeled. alive must already be false for every batch id and
// every id peeled in earlier rounds. Each id whose support decreased is
// appended once to *touched, deduplicated through dirty (all zero at
// rest); the caller clears the marks of the returned ids.
type decFunc = func(batch []int64, alive []bool, sup []int64, dirty []int32, touched *[]int64)

// tips is the k-tip kind of the given side (equations (19)–(22)): the
// seed is the per-vertex sweep and the decrement core.TipDeltaBatch.
func tips(g *graph.Bipartite, side core.Side, threads int) kind {
	n := g.NumV1()
	if side == core.SideV2 {
		n = g.NumV2()
	}
	arena := core.NewArena()
	return kind{
		n: n,
		seed: func(sup []int64) decFunc {
			core.VertexButterfliesMaskedInto(sup, g, side, nil, threads, arena)
			return func(batch []int64, alive []bool, sup []int64, dirty []int32, touched *[]int64) {
				core.TipDeltaBatch(g, side, batch, alive, sup, dirty, touched, threads, arena)
			}
		},
		recount: func(alive []bool, sup []int64) {
			core.VertexButterfliesMaskedInto(sup, g, side, alive, threads, arena)
		},
		keep: func(alive []bool) *graph.Bipartite { return maskSide(g, side, alive) },
	}
}

// wings is the k-wing kind (equations (25)–(27)): the seed builds the
// core.BloomIndex, whose blooms yield every support, and the decrement
// is its closed-form PeelRound, which never drives a support below
// zero. A recount sweeps the rebuilt surviving subgraph.
func wings(g *graph.Bipartite, threads int) kind {
	arena := core.NewArena()
	return kind{
		n: int(g.NumEdges()),
		seed: func(sup []int64) decFunc {
			x := core.NewBloomIndex(g, threads, nil)
			x.SupportsInto(sup)
			return x.PeelRound
		},
		recount: func(alive []bool, sup []int64) {
			h := graphFromAliveEdges(g, alive)
			core.EdgeSupportInto(sup, h, threads, arena)
			// h's edges are the alive ids in flat order, so its supports
			// sit compacted at the front of sup; spread them back from
			// the end, where no write lands on one not yet moved.
			j := h.NumEdges() - 1
			for e := len(alive) - 1; e >= 0; e-- {
				if alive[e] {
					sup[e] = sup[j]
					j--
				}
			}
		},
		keep: func(alive []bool) *graph.Bipartite { return graphFromAliveEdges(g, alive) },
	}
}

// allAlive returns n true flags.
func allAlive(n int) []bool {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	return alive
}

// graphFromAliveEdges rebuilds a bipartite graph keeping only the edges
// whose flat id is still alive, preserving dimensions and vertex ids,
// and returns g itself when every edge is alive. The kept edges are
// copied row by row into an exactly sized CSR, so rows stay sorted and
// no edge list is sorted again.
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
