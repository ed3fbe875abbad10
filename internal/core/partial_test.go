package core

import (
	"math/rand"
	"testing"

	"butterfly/internal/graph"
)

// randomBipartite builds a random m×n graph with about e edges.
func randomBipartite(m, n int, e int, seed int64) *graph.Bipartite {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(m, n)
	for i := 0; i < e; i++ {
		b.AddEdge(rng.Intn(m), rng.Intn(n))
	}
	return b.Build()
}

// partitionV1 splits g's edges by a hash of the V1 endpoint into p
// edge-disjoint graphs over the same vertex sets.
func partitionV1(g *graph.Bipartite, p int) []*graph.Bipartite {
	builders := make([]*graph.Builder, p)
	for i := range builders {
		builders[i] = graph.NewBuilder(g.NumV1(), g.NumV2())
	}
	for u := 0; u < g.NumV1(); u++ {
		part := int(uint64(u*2654435761) % uint64(p))
		for _, v := range g.NeighborsOfV1(u) {
			builders[part].AddEdge(u, int(v))
		}
	}
	out := make([]*graph.Bipartite, p)
	for i, b := range builders {
		out[i] = b.Build()
	}
	return out
}

func TestWedgePartialsSingleEqualsExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Bipartite
	}{
		{"random", randomBipartite(40, 30, 300, 1)},
		{"dense", randomBipartite(12, 12, 200, 2)},
		{"sparse", randomBipartite(100, 100, 150, 3)},
	} {
		exact := CountAuto(tc.g)
		got := CountFromPartials(WedgePartials(tc.g))
		if got != exact {
			t.Errorf("%s: CountFromPartials(single) = %d, exact = %d", tc.name, got, exact)
		}
	}
}

func TestWedgePartialsMergeAcrossPartitions(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		g := randomBipartite(60, 45, 500, seed)
		exact := CountAuto(g)
		for _, p := range []int{1, 2, 3, 4, 7} {
			parts := partitionV1(g, p)
			partials := make([][]WedgePartial, p)
			var local int64
			for i, pg := range parts {
				partials[i] = WedgePartials(pg)
				local += CountFromPartials(partials[i])
			}
			got := CountFromPartials(partials...)
			if got != exact {
				t.Errorf("seed %d p=%d: merged count %d, exact %d", seed, p, got, exact)
			}
			if p > 1 && local > exact {
				t.Errorf("seed %d p=%d: intra-partition counts %d exceed exact %d", seed, p, local, exact)
			}
		}
	}
}

func TestWedgePartialsSortedAndDeduped(t *testing.T) {
	g := randomBipartite(30, 20, 250, 9)
	ps := WedgePartials(g)
	for i := 1; i < len(ps); i++ {
		a, b := ps[i-1], ps[i]
		if a.V > b.V || (a.V == b.V && a.W >= b.W) {
			t.Fatalf("partials not strictly sorted at %d: %+v then %+v", i, a, b)
		}
	}
	for _, p := range ps {
		if p.V >= p.W {
			t.Fatalf("pair not ordered: %+v", p)
		}
		if p.Count <= 0 {
			t.Fatalf("non-positive wedge count: %+v", p)
		}
	}
}
