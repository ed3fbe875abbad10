package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"butterfly/internal/bitvec"
	"butterfly/internal/sparse"
)

// k22 builds the single-butterfly graph K(2,2).
func k22() *Bipartite {
	b := NewBuilder(2, 2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(1, 1)
	return b.Build()
}

func randGraph(rng *rand.Rand, m, n int, density float64) *Bipartite {
	b := NewBuilder(m, n)
	for u := 0; u < m; u++ {
		for v := 0; v < n; v++ {
			if rng.Float64() < density {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// shuffled returns g with both vertex sets renumbered by random
// permutations.
func shuffled(rng *rand.Rand, g *Bipartite) *Bipartite {
	p1, p2 := rng.Perm(g.NumV1()), rng.Perm(g.NumV2())
	b := NewBuilder(g.NumV1(), g.NumV2())
	for _, e := range g.Edges() {
		b.AddEdge(p1[e.U], p2[e.V])
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	g := k22()
	if g.NumV1() != 2 || g.NumV2() != 2 || g.NumEdges() != 4 {
		t.Fatalf("bad shape: %s", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(2-1, 2) == true && false {
		t.Fatal("HasEdge wrong")
	}
	if g.DegreeV1(0) != 2 || g.DegreeV2(1) != 2 {
		t.Fatal("degrees wrong")
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	b := NewBuilder(2, 2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 0)
	b.AddEdge(0, 0)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 after dedup", g.NumEdges())
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range AddEdge did not panic")
		}
	}()
	NewBuilder(1, 1).AddEdge(1, 0)
}

func TestNeighbors(t *testing.T) {
	b := NewBuilder(3, 3)
	b.AddEdge(0, 2)
	b.AddEdge(0, 0)
	b.AddEdge(1, 1)
	b.AddEdge(2, 1)
	g := b.Build()

	n0 := g.NeighborsOfV1(0)
	if len(n0) != 2 || n0[0] != 0 || n0[1] != 2 {
		t.Fatalf("NeighborsOfV1(0) = %v", n0)
	}
	n1 := g.NeighborsOfV2(1)
	if len(n1) != 2 || n1[0] != 1 || n1[1] != 2 {
		t.Fatalf("NeighborsOfV2(1) = %v", n1)
	}
}

func TestFromEdgesAndEdges(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 0}, {2, 2}}
	g := FromEdges(3, 3, edges)
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	back := g.Edges()
	if len(back) != 3 {
		t.Fatalf("Edges len = %d", len(back))
	}
	h := FromEdges(3, 3, back)
	if !g.Equal(h) {
		t.Fatal("edge-list round trip differs")
	}
}

func TestFromCSRRejectsBad(t *testing.T) {
	if _, err := FromCSR(nil); err == nil {
		t.Fatal("nil CSR accepted")
	}
	vals := &sparse.CSR{R: 1, C: 1, Ptr: []int64{0, 1}, Col: []int32{0}, Val: []int64{2}}
	if _, err := FromCSR(vals); err == nil {
		t.Fatal("valued CSR accepted as pattern graph")
	}
	corrupt := &sparse.CSR{R: 1, C: 1, Ptr: []int64{0, 1}, Col: []int32{5}}
	if _, err := FromCSR(corrupt); err == nil {
		t.Fatal("corrupt CSR accepted")
	}
}

func TestTransposed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randGraph(rng, 5, 8, 0.3)
	h := g.Transposed()
	if h.NumV1() != 8 || h.NumV2() != 5 || h.NumEdges() != g.NumEdges() {
		t.Fatalf("transpose shape wrong: %s", h)
	}
	for u := 0; u < 5; u++ {
		for v := 0; v < 8; v++ {
			if g.HasEdge(u, v) != h.HasEdge(v, u) {
				t.Fatalf("edge (%d,%d) mismatch after transpose", u, v)
			}
		}
	}
	if !h.Transposed().Equal(g) {
		t.Fatal("double transpose differs")
	}
}

func TestDensity(t *testing.T) {
	g := k22()
	if g.Density() != 1.0 {
		t.Fatalf("K(2,2) density = %f", g.Density())
	}
	if NewBuilder(0, 0).Build().Density() != 0 {
		t.Fatal("empty graph density should be 0")
	}
}

func TestInducedSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randGraph(rng, 6, 6, 0.5)
	keep1, keep2 := bitvec.New(6), bitvec.New(6)
	for i := 0; i < 5; i++ {
		keep1.Set(i + 1)
		keep2.Set(i)
	}
	h := g.InducedSubgraph(keep1, keep2)
	if h.NumV1() != 6 || h.NumV2() != 6 {
		t.Fatal("InducedSubgraph must preserve vertex-set sizes")
	}
	for u := 0; u < 6; u++ {
		for v := 0; v < 6; v++ {
			want := g.HasEdge(u, v) && u != 0 && v != 5
			if h.HasEdge(u, v) != want {
				t.Fatalf("induced edge (%d,%d) = %v, want %v", u, v, h.HasEdge(u, v), want)
			}
		}
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFilterEdges(t *testing.T) {
	g := k22()
	h := g.FilterEdges(func(u, v int32) bool { return u != v })
	if h.NumEdges() != 2 || h.HasEdge(0, 0) || !h.HasEdge(0, 1) {
		t.Fatal("FilterEdges wrong")
	}
}

func TestRelabelDegreeOrders(t *testing.T) {
	b := NewBuilder(3, 3)
	// degrees V1: 0→3, 1→1, 2→2
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 0)
	b.AddEdge(2, 0)
	b.AddEdge(2, 1)
	g := b.Build()

	desc, p1, _ := g.relabelByDegree()
	if g.DegreeV1(int(p1[0])) < g.DegreeV1(int(p1[1])) || g.DegreeV1(int(p1[1])) < g.DegreeV1(int(p1[2])) {
		t.Fatal("permutation not sorted by descending degree")
	}
	for newID := 0; newID < 2; newID++ {
		if desc.DegreeV1(newID) < desc.DegreeV1(newID+1) {
			t.Fatal("relabeled graph degrees not descending")
		}
	}
}

// Relabeling is an isomorphism: edges map exactly through the
// permutations, and edge count is preserved.
func TestQuickRelabelIsIsomorphism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randGraph(rng, rng.Intn(8)+1, rng.Intn(8)+1, 0.4)
		h, p1, p2 := g.relabelByDegree()
		if h.NumEdges() != g.NumEdges() {
			return false
		}
		for newU := 0; newU < h.NumV1(); newU++ {
			for _, newV := range h.NeighborsOfV1(newU) {
				if !g.HasEdge(int(p1[newU]), int(p2[newV])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	b := NewBuilder(3, 2)
	b.AddEdge(0, 0)
	b.AddEdge(1, 0)
	b.AddEdge(2, 0)
	b.AddEdge(0, 1)
	g := b.Build()
	s := ComputeStats(g)
	if s.NumV1 != 3 || s.NumV2 != 2 || s.NumEdges != 4 {
		t.Fatalf("stats counts wrong: %+v", s)
	}
	// deg V2: v0 = 3, v1 = 1 → wedges with V1 endpoints = C(3,2) = 3.
	if s.WedgesV1 != 3 {
		t.Fatalf("WedgesV1 = %d, want 3", s.WedgesV1)
	}
	// deg V1: 2, 1, 1 → wedges with V2 endpoints = C(2,2→)=1.
	if s.WedgesV2 != 1 {
		t.Fatalf("WedgesV2 = %d, want 1", s.WedgesV2)
	}
	if s.MaxDegV2 != 3 || s.MinDegV2 != 1 || s.MaxDegV1 != 2 || s.MinDegV1 != 1 {
		t.Fatalf("degree extremes wrong: %+v", s)
	}
	if len(s.String()) == 0 {
		t.Fatal("empty Stats.String")
	}
}

func TestStatsEmpty(t *testing.T) {
	s := ComputeStats(NewBuilder(0, 0).Build())
	if s.NumEdges != 0 || s.Density != 0 || s.AvgDegV1 != 0 {
		t.Fatalf("empty stats wrong: %+v", s)
	}
}

// Stats wedge counts are invariant under relabeling.
func TestQuickStatsRelabelInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randGraph(rng, rng.Intn(8)+1, rng.Intn(8)+1, 0.4)
		h := shuffled(rng, g)
		sg, sh := ComputeStats(g), ComputeStats(h)
		return sg.WedgesV1 == sh.WedgesV1 && sg.WedgesV2 == sh.WedgesV2 &&
			sg.NumEdges == sh.NumEdges && sg.MaxDegV1 == sh.MaxDegV1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesDesync(t *testing.T) {
	g := k22()
	// Unsafe mutation: callers are told not to do this; Validate is the
	// safety net that catches it.
	g.Adj().Col[0] = 1 // duplicate column within the row → invalid CSR
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed corrupted adjacency")
	}

	h := k22()
	// Structurally valid but transpose-desynced adjacency.
	h.Adj().Col[0], h.Adj().Col[1] = 0, 1 // unchanged pattern: rebuild a real desync below
	b := NewBuilder(2, 2)
	b.AddEdge(0, 0)
	fresh := b.Build()
	// Splice fresh adj into h without refreshing adjT.
	*h.Adj() = *fresh.Adj()
	if err := h.Validate(); err == nil {
		t.Fatal("Validate missed adj/adjT desync")
	}
}
