package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"butterfly/internal/dense"
	"butterfly/internal/gen"
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

func TestQuickCountSpGEMMParallelMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 12)
		want := dense.SpecCount(d)
		return CountSpGEMMParallel(g, 4) == want && CountSpGEMMParallel(g, 1) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCountSpGEMMParallelLarge(t *testing.T) {
	g := gen.PowerLawBipartite(4000, 3000, 20000, 0.7, 0.7, 3)
	want := CountAuto(g)
	if got := CountSpGEMMParallel(g, 6); got != want {
		t.Fatalf("parallel SpGEMM count %d, want %d", got, want)
	}
}

var sinkBench int64

func TestQuickVertexButterfliesSpGEMMMatchesSweep(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 12)
		for _, side := range []Side{SideV1, SideV2} {
			want := vertexButterflies(g, side)
			got := vertexButterfliesSpGEMM(g, side)
			for i := range want {
				if got[i] != want[i] {
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

func TestVertexButterfliesSpGEMMMedium(t *testing.T) {
	g := gen.PowerLawBipartite(500, 400, 3000, 0.7, 0.7, 18)
	want := vertexButterflies(g, SideV1)
	got := vertexButterfliesSpGEMM(g, SideV1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vertex %d: %d, want %d", i, got[i], want[i])
		}
	}
}

func TestQuickCountBlockedAlgebraicMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 12)
		want := dense.SpecCount(d)
		for _, panel := range []int{1, 2, 3, 7, 64} {
			if CountBlockedAlgebraic(g, panel) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestCountBlockedAlgebraicMedium(t *testing.T) {
	g := gen.PowerLawBipartite(600, 500, 4000, 0.7, 0.7, 19)
	want := CountAuto(g)
	for _, panel := range []int{16, 128} {
		if got := CountBlockedAlgebraic(g, panel); got != want {
			t.Fatalf("panel=%d: %d, want %d", panel, got, want)
		}
	}
}

func TestCountBlockedAlgebraicPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	CountBlockedAlgebraic(gen.Star(2), 0)
}

// vertexButterfliesSpGEMM computes the per-vertex butterfly vector of
// equation (19) directly on the sparse substrate: materialize
// B = A·Aᵀ and evaluate, per row i,
//
//	s_i = ½·(Σ_j β_ij² − β_ii² − Σ_j β_ij + β_ii)
//
// which is the i-th diagonal entry of (BB − B∘B − JB + B)/2. The
// linear-algebra cross-check of VertexButterfliesMaskedInto; heavier
// because B is materialized.
func vertexButterfliesSpGEMM(g *graph.Bipartite, side Side) []int64 {
	a, at := g.Adj(), g.AdjT()
	if side == SideV2 {
		a, at = at, a
	}
	b := sparse.MxM(a, at)
	s := make([]int64, b.R)
	for i := 0; i < b.R; i++ {
		row := b.Row(i)
		vals := b.RowVals(i)
		var sumSq, sum, diag int64
		for k, j := range row {
			v := vals[k]
			sumSq += v * v
			sum += v
			if int(j) == i {
				diag = v
			}
		}
		num := sumSq - diag*diag - sum + diag
		if num%2 != 0 {
			panic("core: per-vertex numerator not divisible by 2")
		}
		s[i] = num / 2
	}
	return s
}
