// Package baseline implements exact butterfly counters that are
// independent of the paper's linear-algebraic family: the wedge-hashing
// counter the paper builds on (Wang et al. 2014 [14]), ParButterfly's
// sort aggregation, and a full enumerator. The sampling estimators
// (Sanei-Mehri et al. 2018 [10]) live in internal/estimate.
//
// They serve two purposes: independent correctness references for the
// core family, and the comparison points a downstream user of a
// butterfly library expects to find. The vertex-priority counter (Wang
// et al. 2019 [15]) is core's priority-wedge pass, shared with the
// bloom index; CountVertexPriority here calls it, and the family
// kernels are its independent check.
package baseline

import (
	"fmt"
	"sort"

	"butterfly/internal/core"
	"butterfly/internal/graph"
)

// CountWedgeHash counts butterflies with the classic two-phase
// wedge-aggregation algorithm of Wang et al. [14]: every wedge
// (endpoints in V1, wedge point in V2) is hashed on its endpoint pair;
// ΞG = Σ_pairs C(wedges, 2). Exact, but the hash table holds one entry
// per connected endpoint pair, which is the O(Σ deg²) space cost the
// paper's loop invariants avoid.
func CountWedgeHash(g *graph.Bipartite) int64 {
	m := int64(g.NumV1())
	pairs := make(map[int64]int32)
	for v := 0; v < g.NumV2(); v++ {
		nbrs := g.NeighborsOfV2(v)
		for x := 0; x < len(nbrs); x++ {
			for y := x + 1; y < len(nbrs); y++ {
				pairs[int64(nbrs[x])*m+int64(nbrs[y])]++
			}
		}
	}
	var total int64
	for _, c := range pairs {
		total += int64(c) * int64(c-1) / 2
	}
	return total
}

// CountVertexPriority counts butterflies with the vertex-priority
// strategy of Wang et al. [15], on one thread: core's priority-wedge
// pass, core.CountVertexPriority.
func CountVertexPriority(g *graph.Bipartite) int64 { return core.CountVertexPriority(g, 1, nil) }

// CountEnumerate counts by explicit enumeration via ListButterflies;
// exact but O(ΞG) — only sensible for graphs with modest counts.
func CountEnumerate(g *graph.Bipartite) int64 {
	var c int64
	ListButterflies(g, func(Butterfly) bool {
		c++
		return true
	})
	return c
}

// Butterfly is one enumerated 2×2 biclique: rows U1 < U2 in V1,
// columns W1 < W2 in V2.
type Butterfly struct {
	U1, U2 int32 // V1 vertices, U1 < U2
	W1, W2 int32 // V2 vertices, W1 < W2
}

// ListButterflies calls fn for every butterfly in g, in lexicographic
// order of (U1, U2, W1, W2). Enumeration stops early if fn returns
// false.
func ListButterflies(g *graph.Bipartite, fn func(Butterfly) bool) {
	m := g.NumV1()
	// For each V1 pair (u1 < u2) sharing ≥ 2 neighbors, every pair of
	// common neighbors is a butterfly. Iterate u1, accumulate common
	// neighbor lists against partners u2 > u1.
	common := make([][]int32, m)
	partners := make([]int32, 0, 64)
	for u1 := 0; u1 < m; u1++ {
		for _, v := range g.NeighborsOfV1(u1) {
			for _, u2 := range g.NeighborsOfV2(int(v)) {
				if u2 <= int32(u1) {
					continue
				}
				if common[u2] == nil {
					partners = append(partners, u2)
				}
				common[u2] = append(common[u2], v)
			}
		}
		sort.Slice(partners, func(a, b int) bool { return partners[a] < partners[b] })
		stop := false
		for _, u2 := range partners {
			vs := common[u2] // ascending: produced in ascending v order
			for x := 0; x < len(vs) && !stop; x++ {
				for y := x + 1; y < len(vs) && !stop; y++ {
					if !fn(Butterfly{U1: int32(u1), U2: u2, W1: vs[x], W2: vs[y]}) {
						stop = true
					}
				}
			}
			common[u2] = nil
		}
		partners = partners[:0]
		if stop {
			return
		}
	}
}

// VerifyAll cross-checks every counter in this package plus the core
// family on g and returns an error naming the first disagreement. Used
// by tests and the CLI's --verify flag.
func VerifyAll(g *graph.Bipartite) error {
	want := core.CountAuto(g)
	checks := []struct {
		name string
		got  int64
	}{
		{"wedge-hash", CountWedgeHash(g)},
		{"vertex-priority", CountVertexPriority(g)},
		{"enumerate", CountEnumerate(g)},
		{"spgemm", core.CountSpGEMM(g)},
		{"sort-aggregate", CountSortAggregate(g, 1)},
		{"sort-aggregate-par", CountSortAggregate(g, 4)},
	}
	for _, c := range checks {
		if c.got != want {
			return fmt.Errorf("baseline: %s counted %d, core counted %d", c.name, c.got, want)
		}
	}
	for _, inv := range core.Invariants() {
		if got := core.Count(g, inv); got != want {
			return fmt.Errorf("baseline: %v counted %d, auto counted %d", inv, got, want)
		}
	}
	return nil
}
