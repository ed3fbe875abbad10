package butterfly

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInducedSubgraphAPI(t *testing.T) {
	g := randGraph(t, 51, 10, 8, 0.5)
	keep1 := make([]bool, 10)
	keep2 := make([]bool, 8)
	for i := range keep1 {
		keep1[i] = i%2 == 0
	}
	for i := range keep2 {
		keep2[i] = true
	}
	h, err := g.InducedSubgraph(keep1, keep2)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumV1() != 10 || h.NumV2() != 8 {
		t.Fatal("sizes not preserved")
	}
	for u := 0; u < 10; u++ {
		for v := 0; v < 8; v++ {
			want := g.HasEdge(u, v) && keep1[u]
			if h.HasEdge(u, v) != want {
				t.Fatalf("edge (%d,%d) = %v, want %v", u, v, h.HasEdge(u, v), want)
			}
		}
	}
	// Nil masks keep everything.
	full, err := g.InducedSubgraph(nil, nil)
	if err != nil || !full.Equal(g) {
		t.Fatal("nil masks changed graph")
	}
	// Bad lengths error.
	if _, err := g.InducedSubgraph(make([]bool, 3), nil); err == nil {
		t.Fatal("bad keepV1 length accepted")
	}
	if _, err := g.InducedSubgraph(nil, make([]bool, 3)); err == nil {
		t.Fatal("bad keepV2 length accepted")
	}
}

func TestFilterEdgesAPI(t *testing.T) {
	g := k22(t)
	h := g.FilterEdges(func(u, v int) bool { return u == v })
	if h.NumEdges() != 2 || !h.HasEdge(0, 0) || h.HasEdge(0, 1) {
		t.Fatal("FilterEdges wrong")
	}
}

func TestPairButterfliesAndCommonNeighbors(t *testing.T) {
	g, err := GenerateComplete(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Any V1 pair in K(4,5) shares all 5 neighbors → C(5,2) = 10.
	got, err := g.PairButterflies(0, 3, V1)
	if err != nil || got != 10 {
		t.Fatalf("PairButterflies = %d, %v", got, err)
	}
	cn, err := g.CommonNeighbors(0, 3, V1)
	if err != nil || cn != 5 {
		t.Fatalf("CommonNeighbors = %d, %v", cn, err)
	}
	// V2 side: pairs share 4 neighbors → C(4,2) = 6.
	got, err = g.PairButterflies(1, 2, V2)
	if err != nil || got != 6 {
		t.Fatalf("V2 PairButterflies = %d, %v", got, err)
	}

	if _, err := g.PairButterflies(0, 0, V1); err == nil {
		t.Fatal("identical pair accepted")
	}
	if _, err := g.PairButterflies(0, 9, V1); err == nil {
		t.Fatal("out-of-range pair accepted")
	}
	if _, err := g.PairButterflies(0, 1, Side(4)); err == nil {
		t.Fatal("bad side accepted")
	}
	if _, err := g.CommonNeighbors(0, 9, V2); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if _, err := g.CommonNeighbors(0, 1, Side(4)); err == nil {
		t.Fatal("bad side accepted")
	}
}

// Σ over all pairs of PairButterflies equals the total count.
func TestQuickPairButterfliesSumToCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := GenerateErdosRenyi(rng.Intn(8)+2, rng.Intn(8)+2, 0.5, seed)
		if err != nil {
			return false
		}
		var sum int64
		for a := 0; a < g.NumV1(); a++ {
			for b := a + 1; b < g.NumV1(); b++ {
				v, err := g.PairButterflies(a, b, V1)
				if err != nil {
					return false
				}
				sum += v
			}
		}
		return sum == g.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Induced subgraph counting agrees with masked per-vertex counting.
func TestQuickInducedSubgraphCounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := GenerateErdosRenyi(rng.Intn(9)+2, rng.Intn(9)+2, 0.5, seed)
		if err != nil {
			return false
		}
		keep := make([]bool, g.NumV1())
		for i := range keep {
			keep[i] = rng.Intn(3) > 0
		}
		h, err := g.InducedSubgraph(keep, nil)
		if err != nil {
			return false
		}
		// Peeled vertices contribute nothing.
		s, err := h.VertexButterflies(V1)
		if err != nil {
			return false
		}
		for u, k := range keep {
			if !k && s[u] != 0 {
				return false
			}
		}
		return h.Count() <= g.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Soak test: a six-figure-edge graph where every public counting path
// must agree. Kept under a few seconds; guards real-scale regressions
// that tiny property tests cannot see.
func TestSoakLargeAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	g, err := GeneratePowerLaw(60000, 40000, 250000, 0.75, 0.7, 99)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Count()
	if want == 0 {
		t.Fatal("degenerate soak workload")
	}
	if got, err := g.CountWith(CountOptions{Threads: 6}); err != nil || got != want {
		t.Fatalf("parallel: %d, %v, want %d", got, err, want)
	}
	got, err := g.CountWith(CountOptions{Invariant: Invariant7, BlockSize: 512})
	if err != nil || got != want {
		t.Fatalf("blocked Inv7: %d, %v", got, err)
	}
	got, err = g.CountWith(CountOptions{Algorithm: AlgorithmVertexPriority})
	if err != nil || got != want {
		t.Fatalf("vertex-priority: %d, %v", got, err)
	}
	d := NewDynamicCounterFromGraph(g)
	if d.Count() != want {
		t.Fatalf("dynamic: %d, want %d", d.Count(), want)
	}
}

func TestRewiredAPI(t *testing.T) {
	g := randGraph(t, 61, 60, 50, 0.2)
	h, err := g.Rewired(2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != g.NumEdges() {
		t.Fatal("edges changed")
	}
	for u := 0; u < g.NumV1(); u++ {
		if h.DegreeV1(u) != g.DegreeV1(u) {
			t.Fatal("degree changed")
		}
	}
	if _, err := g.Rewired(-1, 1); err == nil {
		t.Fatal("negative swaps accepted")
	}
}

func TestButterflySignificance(t *testing.T) {
	// A graph dominated by a planted biclique must be significantly
	// butterfly-rich against its degree-preserving null model.
	b := NewBuilder(400, 400)
	g0, err := GenerateGnm(400, 400, 1200, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g0.Edges() {
		b.AddEdge(e[0], e[1])
	}
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			b.AddEdge(200+u, 200+v)
		}
	}
	g := b.MustBuild()

	sig, err := g.ButterflySignificance(SignificanceOptions{Samples: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sig.Samples != 12 || sig.Observed != g.Count() {
		t.Fatalf("sig bookkeeping wrong: %+v", sig)
	}
	if float64(sig.Observed) <= sig.NullMean {
		t.Fatalf("planted structure not above null mean: %+v", sig)
	}
	if sig.ZScore < 3 {
		t.Fatalf("z-score %.1f too low for planted biclique", sig.ZScore)
	}

	if _, err := g.ButterflySignificance(SignificanceOptions{Samples: 1}); err == nil {
		t.Fatal("too few samples accepted")
	}
	if _, err := g.ButterflySignificance(SignificanceOptions{Samples: 3, SwapsPerEdge: -1}); err == nil {
		t.Fatal("negative swaps accepted")
	}
}

func TestButterflySignificanceDegenerate(t *testing.T) {
	// Complete bipartite graphs cannot be rewired: null std is 0 and the
	// observed count equals the null mean → z-score 0.
	g, err := GenerateComplete(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := g.ButterflySignificance(SignificanceOptions{Samples: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sig.NullStd != 0 || sig.ZScore != 0 {
		t.Fatalf("degenerate sig = %+v", sig)
	}
}
