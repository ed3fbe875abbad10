package graph_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"butterfly/internal/gen"
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

// relabelReference is the comparison-sort relayout that the counting
// sorts replaced, kept as the differential oracle: a stable sort of the
// ids by descending degree with ties broken by id, then every relabeled
// edge fed through Builder.
func relabelReference(g *graph.Bipartite) (h *graph.Bipartite, permV1, permV2 []int32) {
	byDegree := func(n int, deg func(int) int) []int32 {
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		sort.SliceStable(perm, func(x, y int) bool {
			dx, dy := deg(int(perm[x])), deg(int(perm[y]))
			if dx != dy {
				return dx > dy
			}
			return perm[x] < perm[y]
		})
		return perm
	}
	permV1 = byDegree(g.NumV1(), g.DegreeV1)
	permV2 = byDegree(g.NumV2(), g.DegreeV2)
	inv := func(perm []int32) []int32 {
		out := make([]int32, len(perm))
		for newID, oldID := range perm {
			out[oldID] = int32(newID)
		}
		return out
	}
	inv1, inv2 := inv(permV1), inv(permV2)
	b := graph.NewBuilder(g.NumV1(), g.NumV2())
	for u := 0; u < g.NumV1(); u++ {
		for _, v := range g.NeighborsOfV1(u) {
			b.AddEdge(int(inv1[u]), int(inv2[v]))
		}
	}
	return b.Build(), permV1, permV2
}

// identicalCSR reports whether a and b hold byte-identical arrays.
func identicalCSR(a, b *sparse.CSR) bool {
	return a.R == b.R && a.C == b.C && slices.Equal(a.Ptr, b.Ptr) && slices.Equal(a.Col, b.Col) &&
		(a.Val == nil) == (b.Val == nil) && slices.Equal(a.Val, b.Val)
}

// relabelMatchesReference reports whether the degree relabel returns
// the same permutations and the same adj/adjT arrays as the reference.
func relabelMatchesReference(t *testing.T, g *graph.Bipartite) bool {
	t.Helper()
	h, p1, p2 := graph.RelabelByDegree(g)
	rh, rp1, rp2 := relabelReference(g)
	if !slices.Equal(p1, rp1) || !slices.Equal(p2, rp2) {
		t.Errorf("%v: permutations differ from the reference", g)
		return false
	}
	if !identicalCSR(h.Adj(), rh.Adj()) || !identicalCSR(h.AdjT(), rh.AdjT()) {
		t.Errorf("%v: adjacency arrays differ from the reference", g)
		return false
	}
	return true
}

// TestQuickRelabelMatchesReference covers random graphs, including
// empty sides and isolated vertices.
func TestQuickRelabelMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := rng.Intn(40), rng.Intn(40)
		b := graph.NewBuilder(m, n)
		if m > 0 && n > 0 {
			for k := rng.Intn(3 * (m + n)); k > 0; k-- {
				b.AddEdge(rng.Intn(m), rng.Intn(n))
			}
		}
		return relabelMatchesReference(t, b.Build())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRelabelEqualDegreesKeepIDOrder: on a regular graph every degree
// ties, so the stable tie-break by id must leave both permutations the
// identity.
func TestRelabelEqualDegreesKeepIDOrder(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{0, 0}, {1, 1}, {7, 3}, {50, 4}, {64, 64}} {
		b := graph.NewBuilder(tc.n, tc.n)
		for u := 0; u < tc.n; u++ {
			for i := 0; i < tc.k; i++ {
				b.AddEdge(u, (u+3*i)%tc.n)
			}
		}
		g := b.Build()
		if !relabelMatchesReference(t, g) {
			continue
		}
		h, p1, p2 := graph.RelabelByDegree(g)
		for i := range p1 {
			if p1[i] != int32(i) || p2[i] != int32(i) {
				t.Fatalf("n=%d k=%d: tie not broken by id at %d", tc.n, tc.k, i)
			}
		}
		if !h.Equal(g) {
			t.Fatalf("n=%d k=%d: identity relabel changed the graph", tc.n, tc.k)
		}
	}
}

func TestRelabelStandInsMatchReference(t *testing.T) {
	for _, name := range gen.PaperDatasetNames() {
		g, err := gen.ScaledPaperDataset(name, 50)
		if err != nil {
			t.Fatal(err)
		}
		relabelMatchesReference(t, g)
	}
}

func BenchmarkRelabelDegreeDesc(b *testing.B) {
	for _, name := range gen.PaperDatasetNames() {
		g, err := gen.ScaledPaperDataset(name, 50)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graph.RelabelByDegree(g)
			}
		})
	}
}
