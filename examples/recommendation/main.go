// Recommendation: find the dense core of a synthetic user–item graph
// with k-wing peeling, the workload the paper's introduction motivates
// (butterfly-based dense-region discovery in bipartite networks).
//
// A power-law user–item graph is generated, edge supports are computed,
// and the k-wing subgraph is extracted for increasing k. Edges that
// survive deep peeling connect users and items embedded in many shared
// 2×2 co-purchase patterns — the natural candidates for "users like
// you also bought".
//
// Run with: go run ./examples/recommendation
package main

import (
	"fmt"
	"log"

	"butterfly"
)

func main() {
	const (
		users = 3000
		items = 2000
		edges = 18000
	)
	g, err := butterfly.GeneratePowerLaw(users, items, edges, 0.8, 0.7, 2024)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("user–item graph:", g)
	total, err := g.CountWith(butterfly.CountOptions{Threads: -1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total butterflies (co-purchase squares): %d\n\n", total)

	// Sweep k and watch the graph contract to its dense core.
	fmt.Println("k-wing peeling:")
	fmt.Println("  k      edges  active-users  active-items")
	for _, k := range []int64{0, 1, 2, 4, 8, 16, 32, 64} {
		wing, err := g.KWing(k)
		if err != nil {
			log.Fatal(err)
		}
		au, ai := activeSides(wing)
		fmt.Printf("  %-5d %6d  %12d  %12d\n", k, wing.NumEdges(), au, ai)
		if wing.NumEdges() == 0 {
			break
		}
	}

	// Wing numbers rank individual edges: recommend along the deepest.
	wings := g.WingNumbers()
	best := wings[0]
	for _, w := range wings {
		if w.Count > best.Count {
			best = w
		}
	}
	fmt.Printf("\nstrongest co-purchase edge: user %d — item %d (wing number %d)\n",
		best.U, best.V, best.Count)

	// Items to recommend to best.U: neighbors of users who share the
	// strongest item, ranked by butterfly support.
	seen := map[int]bool{}
	for _, other := range g.NeighborsV2(best.V) {
		if other == best.U {
			continue
		}
		for _, item := range g.NeighborsV1(other) {
			if item != best.V && !g.HasEdge(best.U, item) {
				seen[item] = true
			}
		}
	}
	fmt.Printf("candidate recommendations for user %d: %d items\n", best.U, len(seen))
}

// activeSides counts non-isolated vertices per side.
func activeSides(g *butterfly.Graph) (v1, v2 int) {
	for u := 0; u < g.NumV1(); u++ {
		if g.DegreeV1(u) > 0 {
			v1++
		}
	}
	for v := 0; v < g.NumV2(); v++ {
		if g.DegreeV2(v) > 0 {
			v2++
		}
	}
	return v1, v2
}
