package peel

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"butterfly/internal/core"
	"butterfly/internal/gen"
	"butterfly/internal/graph"
)

func TestDensestOnCompleteBipartite(t *testing.T) {
	g := gen.CompleteBipartite(5, 5)
	res := DensestByButterflies(g, core.SideV1)
	if res.Vertices != 5 {
		t.Fatalf("kept %d vertices, want all 5", res.Vertices)
	}
	if res.Butterflies != core.CountAuto(g) {
		t.Fatalf("butterflies %d, want %d", res.Butterflies, core.CountAuto(g))
	}
	if res.Density <= 0 {
		t.Fatal("non-positive density")
	}
}

func TestDensestRecoversPlantedBiclique(t *testing.T) {
	// Sparse organic noise + a dense 8×8 block: greedy peeling must
	// keep (at least) the block and achieve at least its density.
	b := graph.NewBuilder(300, 300)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 600; i++ {
		b.AddEdge(rng.Intn(300), rng.Intn(300))
	}
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			b.AddEdge(100+u, 100+v)
		}
	}
	g := b.Build()

	res := DensestByButterflies(g, core.SideV1)
	for u := 100; u < 108; u++ {
		if !res.Keep[u] {
			t.Fatalf("planted vertex %d peeled away", u)
		}
	}
	// Density must be at least the planted block's own density.
	blockDensity := float64(28*28) / 8 // C(8,2)²/8 butterflies per vertex
	if res.Density < blockDensity {
		t.Fatalf("density %.1f below planted block's %.1f", res.Density, blockDensity)
	}
}

func TestDensestButterflyFree(t *testing.T) {
	res := DensestByButterflies(gen.Star(6), core.SideV2)
	if res.Butterflies != 0 || res.Density != 0 {
		t.Fatalf("butterfly-free result %+v", res)
	}
	empty := DensestByButterflies(gen.CompleteBipartite(0, 0), core.SideV1)
	if empty.Vertices != 0 {
		t.Fatal("empty graph kept vertices")
	}
}

// The reported density is exactly butterflies(kept)/|kept| and no
// k-tip offers a better density than the greedy optimum on the same
// trajectory (sanity: result beats or ties the whole graph's density).
func TestQuickDensestAtLeastWholeGraph(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 10)
		res := DensestByButterflies(g, core.SideV1)
		// Verify reported numbers are self-consistent.
		if res.Vertices > 0 {
			if res.Density != float64(res.Butterflies)/float64(res.Vertices) {
				return false
			}
		}
		// Whole-graph density (over non-isolated V1 vertices) is a
		// lower bound for the greedy optimum.
		nonIso := 0
		for u := 0; u < g.NumV1(); u++ {
			if g.DegreeV1(u) > 0 {
				nonIso++
			}
		}
		if nonIso == 0 {
			return res.Vertices == 0
		}
		whole := float64(core.CountAuto(g)) / float64(nonIso)
		return res.Density >= whole-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestDensestSideV2MatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	_, g := randGraphAndDense(rng, 10)
	a := DensestByButterflies(g, core.SideV2)
	b := DensestByButterflies(g.Transposed(), core.SideV1)
	if a.Butterflies != b.Butterflies || a.Vertices != b.Vertices {
		t.Fatalf("V2 result %+v != transposed V1 result %+v", a, b)
	}
}

// TestDensestGolden pins the greedy peel's result on seeded graphs, on
// both sides: the kept vertices and their butterflies. The expected
// values were produced by the heap peel that walked each removed
// vertex's wedges itself, so a change to the removal path that alters
// the greedy order shows here.
func TestDensestGolden(t *testing.T) {
	powerLaw := func(m, n int, e int64, seed int64) *graph.Bipartite {
		return gen.PowerLawBipartite(m, n, e, 0.7, 0.7, seed)
	}
	random := func(seed int64) *graph.Bipartite {
		_, g := randGraphAndDense(rand.New(rand.NewSource(seed)), 14)
		return g
	}
	for _, c := range []struct {
		name        string
		g           *graph.Bipartite
		side        core.Side
		keep        []int
		butterflies int64
	}{
		{"powerlaw-13", powerLaw(120, 100, 900, 13), core.SideV1, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 13, 16, 17}, 3231},
		{"powerlaw-13", powerLaw(120, 100, 900, 13), core.SideV2, []int{0, 1, 2, 3, 4, 6}, 1818},
		{"powerlaw-3", powerLaw(300, 250, 2000, 3), core.SideV1, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, 3591},
		{"powerlaw-3", powerLaw(300, 250, 2000, 3), core.SideV2, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 10}, 4123},
		{"powerlaw-7", powerLaw(200, 160, 1400, 7), core.SideV1, []int{0, 1, 2, 3, 4}, 1901},
		{"powerlaw-7", powerLaw(200, 160, 1400, 7), core.SideV2, []int{0, 1, 2, 3, 4, 5, 7}, 2220},
		{"random-1", random(1), core.SideV1, []int{0, 1, 2, 3, 4, 7, 9, 10, 11, 12, 13}, 655},
		{"random-1", random(1), core.SideV2, []int{0, 1, 2, 3, 4, 6, 7, 8, 9}, 719},
		{"random-3", random(3), core.SideV1, []int{0, 1, 3, 4, 5, 6, 7, 9, 10}, 95},
		{"random-3", random(3), core.SideV2, []int{0, 1, 2, 3}, 102},
		{"random-4", random(4), core.SideV2, []int{1, 2, 7}, 3},
	} {
		res := DensestByButterflies(c.g, c.side)
		var keep []int
		for i, k := range res.Keep {
			if k {
				keep = append(keep, i)
			}
		}
		if !reflect.DeepEqual(keep, c.keep) || res.Butterflies != c.butterflies {
			t.Errorf("%s side %v: keep %v with %d butterflies, want %v with %d",
				c.name, c.side, keep, res.Butterflies, c.keep, c.butterflies)
		}
	}
}
