package graph

import (
	"math/rand"
	"slices"
	"testing"

	"butterfly/internal/sparse"
)

// sameArrays reports whether two graphs hold byte-identical Ptr and
// Col arrays in both orientations.
func sameArrays(g, h *Bipartite) bool {
	eq := func(a, b *sparse.CSR) bool {
		return a.R == b.R && a.C == b.C && slices.Equal(a.Ptr, b.Ptr) && slices.Equal(a.Col, b.Col)
	}
	return eq(g.Adj(), h.Adj()) && eq(g.AdjT(), h.AdjT())
}

// randomEdits picks k distinct cells of g, each an insert if the edge
// is absent and a delete if present. A positive hub routes most picks
// through V1 row hub-1 and V2 row hub-1, so one row carries many edits.
func randomEdits(rng *rand.Rand, g *Bipartite, k, hub int) (ins, del []Edge, want map[Edge]bool) {
	want = make(map[Edge]bool, g.NumEdges())
	for _, e := range g.Edges() {
		want[e] = true
	}
	seen := map[Edge]bool{}
	for len(seen) < k {
		e := Edge{U: int32(rng.Intn(g.NumV1())), V: int32(rng.Intn(g.NumV2()))}
		if hub > 0 && rng.Intn(4) != 0 {
			if rng.Intn(2) == 0 {
				e.U = int32(hub-1) % int32(g.NumV1())
			} else {
				e.V = int32(hub-1) % int32(g.NumV2())
			}
		}
		if seen[e] {
			continue
		}
		seen[e] = true
		if want[e] {
			del = append(del, e)
			delete(want, e)
		} else {
			ins = append(ins, e)
			want[e] = true
		}
	}
	return ins, del, want
}

// fromEdgeSet rebuilds an m×n graph from scratch, through FromRows.
func fromEdgeSet(m, n int, edges map[Edge]bool) *Bipartite {
	a := &sparse.CSR{R: m, C: n, Ptr: make([]int64, m+1)}
	for e := range edges {
		a.Ptr[e.U+1]++
	}
	for u := 0; u < m; u++ {
		a.Ptr[u+1] += a.Ptr[u]
	}
	a.Col = make([]int32, len(edges))
	next := slices.Clone(a.Ptr)
	for e := range edges {
		a.Col[next[e.U]] = e.V
		next[e.U]++
	}
	return FromRows(a)
}

// Patching with random edit sets, from a single edit to more than the
// graph's edge count, equals a from-scratch build, array for array,
// and leaves the base untouched.
func TestPatchMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 300; trial++ {
		m, n := rng.Intn(12)+1, rng.Intn(12)+1
		g := randGraph(rng, m, n, rng.Float64())
		before := slices.Clone(g.Adj().Col)
		k := rng.Intn(m*n) + 1
		hub := 0
		if trial%3 == 0 {
			hub = rng.Intn(m+n) + 1
		}
		ins, del, want := randomEdits(rng, g, k, hub)
		p := g.Patch(ins, del)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !sameArrays(p, fromEdgeSet(m, n, want)) {
			t.Fatalf("trial %d (%dx%d, %d ins, %d del): patch differs from rebuild", trial, m, n, len(ins), len(del))
		}
		if !slices.Equal(g.Adj().Col, before) || g.Validate() != nil {
			t.Fatalf("trial %d: patch wrote to its base", trial)
		}
	}
}

// Edits confined to the first and last rows of each side, with the
// rows in between untouched, exercise the block copies at both ends.
func TestPatchEdgeRows(t *testing.T) {
	g := FromEdges(4, 3, []Edge{{1, 0}, {1, 2}, {2, 1}})
	ins := []Edge{{0, 0}, {3, 2}, {0, 2}}
	p := g.Patch(ins, []Edge{{1, 0}})
	want := map[Edge]bool{{1, 2}: true, {2, 1}: true, {0, 0}: true, {3, 2}: true, {0, 2}: true}
	if !sameArrays(p, fromEdgeSet(4, 3, want)) {
		t.Fatalf("got rows %v / %v", p.Adj().Col, p.AdjT().Col)
	}
	// Emptying the graph leaves every row empty.
	e := p.Patch(nil, p.Edges())
	if e.NumEdges() != 0 || !sameArrays(e, NewBuilder(4, 3).Build()) {
		t.Fatal("deleting every edge did not yield the empty graph")
	}
}

func TestPatchNoEditsReturnsSelf(t *testing.T) {
	g := k22()
	if g.Patch(nil, nil) != g || g.Patch([]Edge{}, nil) != g {
		t.Fatal("empty patch built a new graph")
	}
}

func TestPatchRejectsMismatchedEdits(t *testing.T) {
	g := FromEdges(3, 3, []Edge{{0, 0}, {1, 1}})
	for name, fn := range map[string]func(){
		"insert present":  func() { g.Patch([]Edge{{0, 0}}, nil) },
		"delete absent":   func() { g.Patch(nil, []Edge{{2, 2}}) },
		"insert twice":    func() { g.Patch([]Edge{{2, 2}, {2, 2}}, nil) },
		"insert + delete": func() { g.Patch([]Edge{{1, 1}}, []Edge{{1, 1}}) },
		"out of range":    func() { g.Patch([]Edge{{0, 3}}, nil) },
		"negative":        func() { g.Patch(nil, []Edge{{-1, 0}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
