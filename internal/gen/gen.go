package gen

import (
	"fmt"
	"math"
	"math/rand"

	"butterfly/internal/graph"
)

// ErdosRenyi samples each of the m·n possible edges independently with
// probability p. For small p it uses geometric gap skipping so the cost
// is O(|E|), not O(m·n).
func ErdosRenyi(m, n int, p float64, seed int64) *graph.Bipartite {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("gen: probability %f out of [0,1]", p))
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(m, n)
	if p == 0 || m == 0 || n == 0 {
		return b.Build()
	}
	if p == 1 {
		for u := 0; u < m; u++ {
			for v := 0; v < n; v++ {
				b.AddEdge(u, v)
			}
		}
		return b.Build()
	}
	total := int64(m) * int64(n)
	// Walk cell indices with geometric gaps: the next success after a
	// failure run of length k has probability (1-p)^k p.
	logq := math.Log1p(-p)
	cell := int64(-1)
	for {
		gap := int64(math.Log(1-rng.Float64()) / logq)
		cell += gap + 1
		if cell >= total {
			break
		}
		b.AddEdge(int(cell/int64(n)), int(cell%int64(n)))
	}
	return b.Build()
}

// Gnm samples exactly e distinct edges uniformly from the m·n possible
// ones (bipartite G(n, m) model).
func Gnm(m, n int, e int64, seed int64) *graph.Bipartite {
	total := int64(m) * int64(n)
	if e < 0 || e > total {
		panic(fmt.Sprintf("gen: edge count %d out of [0,%d]", e, total))
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(m, n)
	seen := make(map[int64]struct{}, e)
	for int64(len(seen)) < e {
		cell := rng.Int63n(total)
		if _, dup := seen[cell]; dup {
			continue
		}
		seen[cell] = struct{}{}
		b.AddEdge(int(cell/int64(n)), int(cell%int64(n)))
	}
	return b.Build()
}

// ChungLu samples approximately e distinct edges with endpoint
// probabilities proportional to the supplied weight vectors — the
// bipartite Chung–Lu model. Duplicates are rejected; sampling stops
// when e distinct edges are found or the duplicate rate shows the
// weighted space is exhausted (maxAttempts = 50·e draws).
func ChungLu(w1, w2 []float64, e int64, seed int64) *graph.Bipartite {
	m, n := len(w1), len(w2)
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(m, n)
	if e == 0 {
		return b.Build()
	}
	s1 := NewAliasSampler(w1)
	s2 := NewAliasSampler(w2)
	seen := make(map[int64]struct{}, e)
	attempts := int64(0)
	maxAttempts := 50 * e
	for int64(len(seen)) < e && attempts < maxAttempts {
		attempts++
		u := s1.Sample(rng)
		v := s2.Sample(rng)
		key := int64(u)*int64(n) + int64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		b.AddEdge(u, v)
	}
	return b.Build()
}

// PowerLawBipartite is the convenience form of ChungLu with power-law
// weights of exponent alpha1 for V1 and alpha2 for V2.
func PowerLawBipartite(m, n int, e int64, alpha1, alpha2 float64, seed int64) *graph.Bipartite {
	return ChungLu(PowerLawWeights(m, alpha1), PowerLawWeights(n, alpha2), e, seed)
}

// CompleteBipartite returns K(a, b); it has C(a,2)·C(b,2) butterflies.
func CompleteBipartite(a, b int) *graph.Bipartite {
	bl := graph.NewBuilder(a, b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			bl.AddEdge(u, v)
		}
	}
	return bl.Build()
}

// Cycle returns the bipartite form of the cycle C(2k): k vertices per
// side, u_i adjacent to v_i and v_{(i+1) mod k}. For k ≥ 3 it has zero
// butterflies; C4 (k = 2) is itself a butterfly.
func Cycle(k int) *graph.Bipartite {
	if k < 2 {
		panic("gen: Cycle needs k ≥ 2")
	}
	b := graph.NewBuilder(k, k)
	for i := 0; i < k; i++ {
		b.AddEdge(i, i)
		b.AddEdge(i, (i+1)%k)
	}
	return b.Build()
}

// Star returns a star: one V1 hub adjacent to n V2 leaves. Butterfly
// count is zero.
func Star(n int) *graph.Bipartite {
	b := graph.NewBuilder(1, n)
	for v := 0; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.Build()
}

// BicliqueChain returns c copies of K(a,b) sharing no vertices, a
// workload whose exact butterfly count c·C(a,2)·C(b,2) is known in
// closed form — handy for validating counters at scale.
func BicliqueChain(c, a, b int) *graph.Bipartite {
	bl := graph.NewBuilder(c*a, c*b)
	for blk := 0; blk < c; blk++ {
		for u := 0; u < a; u++ {
			for v := 0; v < b; v++ {
				bl.AddEdge(blk*a+u, blk*b+v)
			}
		}
	}
	return bl.Build()
}
