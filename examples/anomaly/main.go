// Anomaly: find a planted near-biclique (e.g. a review-fraud ring) in
// a user–product graph using butterfly density.
//
// Fraud rings leave a distinctive footprint: a small set of accounts
// all reviewing the same small set of products forms a dense biclique,
// and bicliques are butterfly factories — C(a,2)·C(b,2) motifs from
// a·b edges. The detector needs no labels: edges whose butterfly
// support is extreme relative to the graph's typical support sit
// inside such blocks. We plant a 12×10 ring in an organic-looking
// power-law graph and recover it from edge supports alone, then
// confirm with k-wing peeling.
//
// Run with: go run ./examples/anomaly
package main

import (
	"fmt"
	"log"
	"sort"

	"butterfly"
)

const (
	users    = 4000
	products = 3000
	edges    = 20000
	ringU    = 12 // planted ring: 12 accounts × 10 products, fully connected
	ringP    = 10
)

func main() {
	organic, err := butterfly.GeneratePowerLaw(users, products, edges, 0.7, 0.7, 303)
	if err != nil {
		log.Fatal(err)
	}

	// Plant the ring on arbitrary mid-popularity vertices.
	g := organic.FilterEdges(func(u, v int) bool { return true })
	b := butterfly.NewBuilder(users, products)
	for _, e := range g.Edges() {
		b.AddEdge(e[0], e[1])
	}
	ringUsers := map[int]bool{}
	ringProds := map[int]bool{}
	for i := 0; i < ringU; i++ {
		u := 1000 + 37*i
		ringUsers[u] = true
		for j := 0; j < ringP; j++ {
			p := 800 + 23*j
			ringProds[p] = true
			b.AddEdge(u, p)
		}
	}
	g = b.MustBuild()
	fmt.Println("graph with planted ring:", g)

	// Raw support is the wrong detector: organic hubs also sit in many
	// butterflies. What distinguishes a ring is *saturation* — its
	// edges realize almost all the butterflies their endpoint degrees
	// could possibly support. For edge (u, v) the ceiling is
	// (deg u − 1)·(deg v − 1); organic hub edges sit far below it.
	type scored struct {
		butterfly.EdgeCount
		saturation float64
	}
	var candidates []scored
	for _, e := range g.EdgeSupports() {
		du, dv := g.DegreeV1(e.U)-1, g.DegreeV2(e.V)-1
		if e.Count < 20 || du <= 0 || dv <= 0 {
			continue
		}
		candidates = append(candidates, scored{e, float64(e.Count) / float64(du*dv)})
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].saturation > candidates[j].saturation })

	flagged := candidates
	if len(flagged) > ringU*ringP {
		flagged = flagged[:ringU*ringP]
	}
	hitU := map[int]bool{}
	hitP := map[int]bool{}
	truePos := 0
	for _, e := range flagged {
		hitU[e.U] = true
		hitP[e.V] = true
		if ringUsers[e.U] && ringProds[e.V] {
			truePos++
		}
	}
	fmt.Printf("flagged %d high-saturation edges: %d inside the planted ring (precision %.0f%%)\n",
		len(flagged), truePos, 100*float64(truePos)/float64(len(flagged)))
	fmt.Printf("suspects: %d accounts (%d real), %d products (%d real)\n",
		len(hitU), ringU, len(hitP), ringP)

	// Cross-check with wing numbers: ring edges support ≥ 99
	// butterflies purely inside the ring, so their wing number has a
	// floor the organic graph rarely reaches.
	wings, _ := g.WingNumbersWith(butterfly.PeelOptions{})
	var ringMin, organicMax int64 = 1 << 62, 0
	for _, e := range wings {
		if ringUsers[e.U] && ringProds[e.V] {
			if e.Count < ringMin {
				ringMin = e.Count
			}
		} else if e.Count > organicMax {
			organicMax = e.Count
		}
	}
	fmt.Printf("wing numbers: ring min=%d vs organic max=%d\n", ringMin, organicMax)
	if ringMin > organicMax {
		fmt.Println("a wing-number threshold separates the ring perfectly ✓")
	}
}
