package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"butterfly/internal/dense"
	"butterfly/internal/gen"
	"butterfly/internal/graph"
)

// vpThreads are the thread counts every vertex-priority test runs at.
var vpThreads = []int{1, 3, runtime.NumCPU()}

// checkVertexPriority reports whether CountVertexPriority(g) equals
// want at every thread count, with and without an arena.
func checkVertexPriority(t *testing.T, name string, g *graph.Bipartite, want int64) bool {
	t.Helper()
	ok := true
	for _, threads := range vpThreads {
		for _, a := range []*Arena{nil, NewArena()} {
			if got := CountVertexPriority(g, threads, a); got != want {
				t.Errorf("%s: threads=%d arena=%v: %d, want %d", name, threads, a != nil, got, want)
				ok = false
			}
		}
	}
	return ok
}

// The counter equals the dense specification (equation 7) on random
// graphs at every thread count.
func TestQuickVertexPriorityParallelMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 12)
		return checkVertexPriority(t, "random", g, dense.SpecCount(d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// A power-law graph large enough to split into many work-weighted
// chunks, and graphs with no wedge at all; the dense specification of
// the power-law graph is out of reach, so the family count is the
// oracle.
func TestVertexPriorityParallelLarge(t *testing.T) {
	for _, g := range []*graph.Bipartite{
		gen.PowerLawBipartite(3000, 2500, 15000, 0.75, 0.7, 12),
		graph.NewBuilder(0, 0).Build(),
		graph.NewBuilder(3, 4).Build(),
	} {
		checkVertexPriority(t, fmt.Sprintf("%dx%d", g.NumV1(), g.NumV2()), g, CountAuto(g))
	}
}

// The counter equals the family count on the five paper stand-ins at
// scale 10.
func TestVertexPriorityOnStandIns(t *testing.T) {
	for _, name := range gen.PaperDatasetNames() {
		g, err := gen.ScaledPaperDataset(name, 10)
		if err != nil {
			t.Fatal(err)
		}
		checkVertexPriority(t, name, g, CountAuto(g))
	}
}
