package butterfly_test

import (
	"fmt"
	"log"

	"butterfly"
)

// The K(2,2) graph is the butterfly itself.
func ExampleGraph_Count() {
	g := butterfly.NewBuilder(2, 2).
		AddEdge(0, 0).AddEdge(0, 1).
		AddEdge(1, 0).AddEdge(1, 1).
		MustBuild()
	fmt.Println(g.Count())
	// Output: 1
}

// All eight derived algorithms agree by construction.
func ExampleGraph_CountWith() {
	g, err := butterfly.GenerateComplete(3, 4)
	if err != nil {
		log.Fatal(err)
	}
	a, _ := g.CountWith(butterfly.CountOptions{Invariant: butterfly.Invariant1})
	b, _ := g.CountWith(butterfly.CountOptions{Invariant: butterfly.Invariant7})
	fmt.Println(a, b, a == b)
	// Output: 18 18 true
}

// Per-vertex counts sum to twice the total: each butterfly touches two
// vertices of either side.
func ExampleGraph_VertexButterflies() {
	g, err := butterfly.GenerateComplete(3, 3)
	if err != nil {
		log.Fatal(err)
	}
	s, err := g.VertexButterflies(butterfly.V1)
	if err != nil {
		log.Fatal(err)
	}
	var sum int64
	for _, v := range s {
		sum += v
	}
	fmt.Println(s, sum == 2*g.Count())
	// Output: [6 6 6] true
}

// Each edge of K(3,3) lies in (3−1)·(3−1) = 4 butterflies.
func ExampleGraph_EdgeSupports() {
	g, err := butterfly.GenerateComplete(3, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(g.EdgeSupports()[0].Count)
	// Output: 4
}

// Peeling K(3,3) at its own support keeps it; one past destroys it.
func ExampleGraph_KWing() {
	g, err := butterfly.GenerateComplete(3, 3)
	if err != nil {
		log.Fatal(err)
	}
	keep, _ := g.KWing(4)
	gone, _ := g.KWing(5)
	fmt.Println(keep.NumEdges(), gone.NumEdges())
	// Output: 9 0
}

// Butterflies enumerates motifs in lexicographic order.
func ExampleGraph_Butterflies() {
	g := butterfly.NewBuilder(2, 3).
		AddEdge(0, 0).AddEdge(0, 1).AddEdge(0, 2).
		AddEdge(1, 0).AddEdge(1, 1).AddEdge(1, 2).
		MustBuild()
	g.Butterflies(func(b butterfly.Butterfly) bool {
		fmt.Printf("{%d,%d}x{%d,%d}\n", b.U1, b.U2, b.W1, b.W2)
		return true
	})
	// Output:
	// {0,1}x{0,1}
	// {0,1}x{0,2}
	// {0,1}x{1,2}
}

// The dynamic counter reports exactly how many butterflies each update
// creates or destroys.
func ExampleDynamicCounter() {
	d, err := butterfly.NewDynamicCounter(2, 2)
	if err != nil {
		log.Fatal(err)
	}
	d.InsertEdge(0, 0)
	d.InsertEdge(0, 1)
	d.InsertEdge(1, 0)
	_, created, _ := d.InsertEdge(1, 1) // closes the square
	fmt.Println(created, d.Count())
	// Output: 1 1
}

// The FLAME derivation argument can be machine-checked per graph.
func ExampleGraph_VerifyDerivation() {
	g, err := butterfly.GenerateComplete(3, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(g.VerifyDerivation())
	// Output: <nil>
}

// Greedy butterfly-density peeling pulls out the planted dense block.
func ExampleGraph_DensestByButterflies() {
	b := butterfly.NewBuilder(100, 100)
	// Sparse background.
	for i := 0; i < 90; i++ {
		b.AddEdge(i, (i*37)%100)
	}
	// Dense 5×5 block on vertices 10–14.
	for u := 10; u < 15; u++ {
		for v := 10; v < 15; v++ {
			b.AddEdge(u, v)
		}
	}
	g := b.MustBuild()
	res, err := g.DensestByButterflies(butterfly.V1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Vertices, res.Butterflies)
	// Output: 5 100
}

// One-mode projection: pairs of same-side vertices with their shared
// neighbor counts.
func ExampleGraph_Project() {
	g, err := butterfly.GenerateComplete(3, 2)
	if err != nil {
		log.Fatal(err)
	}
	pairs, err := g.Project(butterfly.V1, 2)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pairs {
		fmt.Printf("%d-%d shares %d\n", p.A, p.B, p.Shared)
	}
	// Output:
	// 0-1 shares 2
	// 0-2 shares 2
	// 1-2 shares 2
}

// The reservoir estimator is exact while the stream still fits.
func ExampleStreamEstimator() {
	s, err := butterfly.NewStreamEstimator(2, 2, 16, 1)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		if err := s.Add(e[0], e[1]); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println(s.Estimate())
	// Output: 1
}

// Labeled graphs carry names through every analysis.
func ExampleLabeledBuilder() {
	g, err := butterfly.NewLabeledBuilder().
		AddEdge("ana", "jazz").AddEdge("ana", "rock").
		AddEdge("ben", "jazz").AddEdge("ben", "rock").
		Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(g.Count(), g.HasEdgeLabeled("ana", "jazz"))
	// Output: 1 true
}
