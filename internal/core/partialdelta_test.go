package core

import (
	"errors"
	"math/rand"
	"testing"

	"butterfly/internal/graph"
)

// mutateRows rebuilds g with the adjacency of every center in touched
// re-rolled at random (possibly empty), returning the new graph. All
// other rows are copied verbatim, so touched is exactly the set of
// centers whose wedge contribution may have changed.
func mutateRows(g *graph.Bipartite, touched []int, seed int64) *graph.Bipartite {
	rng := rand.New(rand.NewSource(seed))
	isTouched := map[int]bool{}
	for _, u := range touched {
		isTouched[u] = true
	}
	b := graph.NewBuilder(g.NumV1(), g.NumV2())
	for u := 0; u < g.NumV1(); u++ {
		if isTouched[u] {
			for k := rng.Intn(8); k > 0; k-- {
				b.AddEdge(u, rng.Intn(g.NumV2()))
			}
			continue
		}
		for _, v := range g.NeighborsOfV1(u) {
			b.AddEdge(u, int(v))
		}
	}
	return b.Build()
}

func pairCountsEqual(a, b []WedgePartial) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWedgePartialsOfMatchesFilteredFull(t *testing.T) {
	g := randomBipartite(50, 40, 400, 11)
	centers := []int{3, 3, 17, -1, 49, 1000, 8} // dups and out-of-range ignored
	got := WedgePartialsOf(g, centers)

	// Reference: zero out every untouched row and take the full partial.
	keep := map[int]bool{3: true, 17: true, 49: true, 8: true}
	b := graph.NewBuilder(g.NumV1(), g.NumV2())
	for u := 0; u < g.NumV1(); u++ {
		if !keep[u] {
			continue
		}
		for _, v := range g.NeighborsOfV1(u) {
			b.AddEdge(u, int(v))
		}
	}
	want := WedgePartials(b.Build())
	if !pairCountsEqual(got, want) {
		t.Fatalf("WedgePartialsOf = %v, want %v", got, want)
	}

	if out := WedgePartialsOf(g, nil); len(out) != 0 {
		t.Errorf("no centers should yield empty partial, got %d entries", len(out))
	}
	if !pairCountsEqual(WedgePartialsOf(g, rangeInts(g.NumV1())), WedgePartials(g)) {
		t.Error("all centers should reproduce the full partial")
	}
}

func rangeInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestDiffApplyRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed * 100))
		before := randomBipartite(60, 45, 500, seed)
		touched := make([]int, 0, 10)
		for i := 0; i < 10; i++ {
			touched = append(touched, rng.Intn(before.NumV1()))
		}
		after := mutateRows(before, touched, seed*100+1)

		delta := DiffPartials(
			WedgePartialsOf(after, touched),
			WedgePartialsOf(before, touched),
		)
		for _, d := range delta {
			if d.Count == 0 {
				t.Fatalf("seed %d: zero-count entry in delta: %+v", seed, d)
			}
		}
		got, err := ApplyPartialDelta(WedgePartials(before), delta)
		if err != nil {
			t.Fatalf("seed %d: apply: %v", seed, err)
		}
		if want := WedgePartials(after); !pairCountsEqual(got, want) {
			t.Fatalf("seed %d: delta-applied partial diverges from fresh partial", seed)
		}
	}
}

func TestDiffPartialsCancelsUnchanged(t *testing.T) {
	g := randomBipartite(30, 20, 250, 6)
	full := WedgePartials(g)
	if d := DiffPartials(full, full); len(d) != 0 {
		t.Fatalf("self-diff should be empty, got %d entries", len(d))
	}
}

func TestSumPartialDeltasComposes(t *testing.T) {
	// Composing v1→v2 and v2→v3 deltas must equal the v1→v3 delta.
	g1 := randomBipartite(40, 30, 300, 21)
	g2 := mutateRows(g1, []int{2, 9, 11}, 22)
	g3 := mutateRows(g2, []int{9, 30, 5}, 23)
	d12 := DiffPartials(WedgePartials(g2), WedgePartials(g1))
	d23 := DiffPartials(WedgePartials(g3), WedgePartials(g2))
	d13 := DiffPartials(WedgePartials(g3), WedgePartials(g1))
	if !pairCountsEqual(SumPartialDeltas(d12, d23), d13) {
		t.Fatal("composed delta diverges from direct diff")
	}
}

func TestApplyPartialDeltaRejectsNegative(t *testing.T) {
	base := []WedgePartial{{V: 1, W: 2, Count: 3}}
	delta := []WedgePartial{{V: 1, W: 2, Count: -5}}
	_, err := ApplyPartialDelta(base, delta)
	if err == nil {
		t.Fatal("negative result accepted")
	}
	var ne *NegativePartialError
	if !errors.As(err, &ne) {
		t.Fatalf("error %T, want *NegativePartialError", err)
	}
	if ne.V != 1 || ne.W != 2 || ne.C != -2 {
		t.Errorf("error detail = %+v", ne)
	}

	// Exact cancellation is fine: the pair just disappears.
	got, err := ApplyPartialDelta(base, []WedgePartial{{V: 1, W: 2, Count: -3}})
	if err != nil || len(got) != 0 {
		t.Fatalf("cancel-to-zero: got %v, err %v", got, err)
	}
}
