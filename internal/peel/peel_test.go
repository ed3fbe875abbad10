package peel

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"butterfly/internal/bitvec"
	"butterfly/internal/core"
	"butterfly/internal/dense"
	"butterfly/internal/gen"
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

func randGraphAndDense(rng *rand.Rand, maxSide int) (*dense.Matrix, *graph.Bipartite) {
	m := rng.Intn(maxSide) + 1
	n := rng.Intn(maxSide) + 1
	d := dense.New(m, n)
	p := 0.3 + 0.5*rng.Float64()
	for i := range d.Data {
		if rng.Float64() < p {
			d.Data[i] = 1
		}
	}
	g, err := graph.FromCSR(sparse.FromDense(d, true))
	if err != nil {
		panic(err)
	}
	return d, g
}

// The recount engine on one thread is the tests' oracle path (its
// k-subgraphs are checked against the dense spec below); these helpers
// drop its round counts.
func kTip(g *graph.Bipartite, k int64, side core.Side) *graph.Bipartite {
	sub, _ := recountBelow(tips(g, side, 1), k, nil)
	return sub
}

func kWing(g *graph.Bipartite, k int64) *graph.Bipartite {
	sub, _ := recountBelow(wings(g, 1), k, nil)
	return sub
}

func tipNumbers(g *graph.Bipartite, side core.Side) []int64 {
	return mustTip(recountLevels(tips(g, side, 1), nil))
}

func wingNumbers(g *graph.Bipartite) []int64 {
	return mustTip(recountLevels(wings(g, 1), nil))
}

// v1Counts is the per-vertex butterfly vector of V1.
func v1Counts(g *graph.Bipartite) []int64 {
	s := make([]int64, g.NumV1())
	core.VertexButterfliesMaskedInto(s, g, core.SideV1, nil, 1, nil)
	return s
}

func TestKTipZeroKeepsGraph(t *testing.T) {
	g := gen.PowerLawBipartite(50, 40, 200, 0.7, 0.7, 1)
	if !kTip(g, 0, core.SideV1).Equal(g) {
		t.Fatal("0-tip should keep the whole graph")
	}
}

func TestKTipCompleteBipartite(t *testing.T) {
	g := gen.CompleteBipartite(4, 4)
	s := v1Counts(g)[0]
	if !kTip(g, s, core.SideV1).Equal(g) {
		t.Fatal("s-tip of K(4,4) should be the whole graph")
	}
	empty := kTip(g, s+1, core.SideV1)
	if empty.NumEdges() != 0 {
		t.Fatalf("(s+1)-tip should be empty, has %d edges", empty.NumEdges())
	}
}

func TestQuickKTipMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 8)
		for k := int64(0); k <= 4; k++ {
			want := dense.SpecKTip(d, k)
			got := sparse.ToDense(kTip(g, k, core.SideV1).Adj())
			if !got.Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKTipLookAheadAgrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 10)
		for k := int64(0); k <= 4; k++ {
			for _, side := range []core.Side{core.SideV1, core.SideV2} {
				if !KTipLookAhead(g, k, side).Equal(kTip(g, k, side)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestKTipSideV2MatchesTransposedV1(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	_, g := randGraphAndDense(rng, 9)
	for k := int64(0); k <= 3; k++ {
		a := kTip(g, k, core.SideV2)
		b := kTip(g.Transposed(), k, core.SideV1).Transposed()
		if !a.Equal(b) {
			t.Fatalf("k=%d: V2-side tip differs from transposed V1-side tip", k)
		}
	}
}

// Every vertex surviving in the k-tip must indeed sit in ≥ k
// butterflies of the k-tip (the defining property).
func TestQuickKTipDefiningProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 10)
		for k := int64(1); k <= 3; k++ {
			h := kTip(g, k, core.SideV1)
			s := v1Counts(h)
			for u := 0; u < h.NumV1(); u++ {
				if h.DegreeV1(u) > 0 && s[u] < k {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestKWingZeroKeepsGraph(t *testing.T) {
	g := gen.PowerLawBipartite(50, 40, 200, 0.7, 0.7, 2)
	if !kWing(g, 0).Equal(g) {
		t.Fatal("0-wing should keep the whole graph")
	}
}

func TestKWingCompleteBipartite(t *testing.T) {
	g := gen.CompleteBipartite(3, 5)
	s := core.EdgeSupportInto(nil, g, 1, nil).Val[0]
	if !kWing(g, s).Equal(g) {
		t.Fatal("s-wing of complete graph should be whole graph")
	}
	if kWing(g, s+1).NumEdges() != 0 {
		t.Fatal("(s+1)-wing should be empty")
	}
}

func TestQuickKWingMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 8)
		for k := int64(0); k <= 4; k++ {
			want := dense.SpecKWing(d, k)
			got := sparse.ToDense(kWing(g, k).Adj())
			if !got.Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Every edge surviving in the k-wing supports ≥ k butterflies inside it.
func TestQuickKWingDefiningProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 9)
		for k := int64(1); k <= 3; k++ {
			h := kWing(g, k)
			sup := core.EdgeSupportInto(nil, h, 1, nil)
			for _, v := range sup.Val {
				if v < k {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Both engines' tip numbers are exactly the thresholds at which
// vertices drop out of k-tips, for every k.
func TestQuickTipDecompositionConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 8)
		for _, tip := range [][]int64{tipNumbers(g, core.SideV1), mustTip(deltaLevels(tips(g, core.SideV1, 1), nil))} {
			maxTip := int64(0)
			for _, v := range tip {
				if v > maxTip {
					maxTip = v
				}
			}
			for k := int64(0); k <= maxTip+1; k++ {
				keep := bitvec.New(g.NumV1())
				for u, tn := range tip {
					if tn >= k {
						keep.Set(u)
					}
				}
				want := kTip(g, k, core.SideV1)
				got := g.InducedSubgraph(keep, nil)
				if !got.Equal(want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Both engines' wing numbers are exactly the thresholds at which edges
// drop out of k-wings, for every k.
func TestQuickWingDecompositionConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 7)
		adj := g.Adj()
		for _, wing := range [][]int64{wingNumbers(g), mustTip(deltaLevels(wings(g, 1), nil))} {
			maxWing := int64(0)
			for _, v := range wing {
				if v > maxWing {
					maxWing = v
				}
			}
			for k := int64(0); k <= maxWing+1; k++ {
				kept := sparse.Select(adj, func(i int, j int32, _ int64) bool {
					e, ok := edgeID(adj, i, j)
					return ok && wing[e] >= k
				})
				got, err := graph.FromCSR(kept)
				if err != nil {
					return false
				}
				if !got.Equal(kWing(g, k)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestTipDecompositionCompleteBipartite(t *testing.T) {
	g := gen.CompleteBipartite(4, 5)
	s := v1Counts(g)[0]
	for u, tn := range tipNumbers(g, core.SideV1) {
		if tn != s {
			t.Fatalf("tip number of u%d = %d, want %d (uniform graph)", u, tn, s)
		}
	}
}

func TestWingDecompositionCompleteBipartite(t *testing.T) {
	g := gen.CompleteBipartite(4, 4)
	s := core.EdgeSupportInto(nil, g, 1, nil).Val[0]
	for e, wn := range wingNumbers(g) {
		if wn != s {
			t.Fatalf("wing number of edge %d = %d, want %d", e, wn, s)
		}
	}
}

func TestWingDecompositionButterflyFree(t *testing.T) {
	g := gen.Star(6)
	for _, wn := range wingNumbers(g) {
		if wn != 0 {
			t.Fatal("star edges must have wing number 0")
		}
	}
	tip := tipNumbers(g, core.SideV1)
	if tip[0] != 0 {
		t.Fatal("star hub must have tip number 0")
	}
}

// Nesting: higher k never keeps more structure.
func TestQuickPeelingMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 9)
		prevTip := kTip(g, 0, core.SideV1)
		prevWing := kWing(g, 0)
		for k := int64(1); k <= 3; k++ {
			curTip := kTip(g, k, core.SideV1)
			curWing := kWing(g, k)
			if curTip.NumEdges() > prevTip.NumEdges() || curWing.NumEdges() > prevWing.NumEdges() {
				return false
			}
			prevTip, prevWing = curTip, curWing
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// edgeID returns the flat edge index of (u, v), if present.
func edgeID(a *sparse.CSR, u int, v int32) (int64, bool) {
	row := a.Row(u)
	k := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	if k < len(row) && row[k] == v {
		return a.Ptr[u] + int64(k), true
	}
	return 0, false
}

func TestEdgeHelpers(t *testing.T) {
	g := gen.CompleteBipartite(3, 3)
	adj := g.Adj()
	id, ok := edgeID(adj, 2, 1)
	if !ok || id != adj.Ptr[2]+1 {
		t.Fatalf("edgeID(2,1) = %d,%v", id, ok)
	}
	if _, ok := edgeID(adj, 2, 5); ok {
		t.Fatal("edgeID found a non-edge")
	}
}
