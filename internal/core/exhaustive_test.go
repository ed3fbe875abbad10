package core

import (
	"testing"

	"butterfly/internal/dense"
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

// enumerateGraphs calls fn with every bipartite graph on an m×n
// biadjacency matrix (2^(m·n) of them).
func enumerateGraphs(m, n int, fn func(d *dense.Matrix, g *graph.Bipartite)) {
	cells := m * n
	for bits := 0; bits < 1<<cells; bits++ {
		d := dense.New(m, n)
		for c := 0; c < cells; c++ {
			if bits&(1<<c) != 0 {
				d.Data[c] = 1
			}
		}
		g, err := graph.FromCSR(sparse.FromDense(d, true))
		if err != nil {
			panic(err)
		}
		fn(d, g)
	}
}

// bruteCount counts butterflies by quadruple enumeration.
func bruteCount(d *dense.Matrix) int64 {
	var c int64
	for i := 0; i < d.Rows; i++ {
		for j := i + 1; j < d.Rows; j++ {
			for k := 0; k < d.Cols; k++ {
				for p := k + 1; p < d.Cols; p++ {
					if d.At(i, k) != 0 && d.At(i, p) != 0 && d.At(j, k) != 0 && d.At(j, p) != 0 {
						c++
					}
				}
			}
		}
	}
	return c
}

// TestExhaustiveAllGraphs3x3 verifies every family member against
// brute-force enumeration on ALL 512 graphs with |V1| = |V2| = 3 —
// no sampling gaps on the smallest interesting universe.
func TestExhaustiveAllGraphs3x3(t *testing.T) {
	enumerateGraphs(3, 3, func(d *dense.Matrix, g *graph.Bipartite) {
		want := bruteCount(d)
		for _, inv := range Invariants() {
			if got := Count(g, inv); got != want {
				t.Fatalf("graph %v %v: %d, want %d", d.Data, inv, got, want)
			}
		}
		if got := CountSpGEMM(g); got != want {
			t.Fatalf("graph %v spgemm: %d, want %d", d.Data, got, want)
		}
	})
}

// TestExhaustiveAllGraphs2x4 covers every rectangular 2×4 universe
// (256 graphs) including the blocked and parallel paths.
func TestExhaustiveAllGraphs2x4(t *testing.T) {
	enumerateGraphs(2, 4, func(d *dense.Matrix, g *graph.Bipartite) {
		want := bruteCount(d)
		for _, inv := range []Invariant{Inv1, Inv4, Inv5, Inv8} {
			if got := CountWith(g, Options{Invariant: inv, BlockSize: 3}); got != want {
				t.Fatalf("graph %v %v blocked: %d, want %d", d.Data, inv, got, want)
			}
			if got := CountWith(g, Options{Invariant: inv, Threads: 2}); got != want {
				t.Fatalf("graph %v %v parallel: %d, want %d", d.Data, inv, got, want)
			}
		}
	})
}

// TestExhaustivePerVertexAndEdge3x3 verifies per-vertex counts and edge
// supports on the full 3×3 universe.
func TestExhaustivePerVertexAndEdge3x3(t *testing.T) {
	enumerateGraphs(3, 3, func(d *dense.Matrix, g *graph.Bipartite) {
		total := bruteCount(d)
		var vs int64
		for _, v := range vertexButterflies(g, SideV1) {
			vs += v
		}
		if vs != 2*total {
			t.Fatalf("graph %v: Σ vertex counts %d, want %d", d.Data, vs, 2*total)
		}
		if got := sumValues(edgeSupport(g)); got != 4*total {
			t.Fatalf("graph %v: Σ supports %d, want %d", d.Data, got, 4*total)
		}
	})
}
