package core

import (
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

// CountSpGEMM counts butterflies by executing the specification (7)
// directly on the sparse substrate: it materializes the wedge matrix
// B = A·Aᵀ with a sparse matrix–matrix product and evaluates
// ΞG = ½·Σ_{i≠j} C(β_ij, 2). It is the "pure linear algebra" family
// member — asymptotically heavier than the loop invariants (B has one
// entry per connected row pair) but a useful independent implementation
// and the natural bridge to GraphBLAS-style systems.
func CountSpGEMM(g *graph.Bipartite) int64 {
	a := g.Adj()
	at := g.AdjT()
	// Work on the smaller side to keep B small, mirroring the family
	// selection rule: B is |side|²-shaped in the worst case.
	if g.NumV2() < g.NumV1() {
		a, at = at, a
	}
	return countFromWedgeMatrix(sparse.MxM(a, at, sparse.PlusTimes))
}

// CountSpGEMMParallel is CountSpGEMM with a row-parallel sparse
// product (threads ≤ 1 falls back to the sequential kernel).
func CountSpGEMMParallel(g *graph.Bipartite, threads int) int64 {
	a := g.Adj()
	at := g.AdjT()
	if g.NumV2() < g.NumV1() {
		a, at = at, a
	}
	return countFromWedgeMatrix(sparse.MxMParallel(a, at, sparse.PlusTimes, threads))
}

// countFromWedgeMatrix evaluates ΞG = ½·Σ_{i≠j} C(β_ij, 2) over the
// stored entries of B = AAᵀ.
func countFromWedgeMatrix(b *sparse.CSR) int64 {
	var twice int64
	for i := 0; i < b.R; i++ {
		row := b.Row(i)
		vals := b.RowVals(i)
		for k, j := range row {
			if int(j) == i {
				continue
			}
			c := vals[k]
			twice += c * (c - 1) / 2
		}
	}
	return twice / 2
}

// CountBlockedAlgebraic executes the blocked FLAME update with matrix
// products instead of scalar loops: the adjacency is processed in
// column panels A1 of the given width, and each panel contributes
//
//	ΞG += ½·Σᵢⱼ (A1ᵀ·A0)∘(A1ᵀ·A0)  − ½·(pairs with β=1 correction)
//	    + butterflies within the panel
//
// concretely: cross-panel wedge counts W = A1ᵀ·A0 give Σ C(w,2) over
// stored entries, and within-panel counts come from the strictly-upper
// part of A1ᵀ·A1. This is the third execution strategy for the same
// invariant family — scalar loops (Count), blocked scalar loops
// (Options.BlockSize), and block linear algebra (this function) — all
// proven equal by tests. Heavier than the loops (it materializes panel
// products) but the natural shape for offload to a GraphBLAS/BLAS
// backend.
func CountBlockedAlgebraic(g *graph.Bipartite, panel int) int64 {
	if panel < 1 {
		panic("core: panel width must be ≥ 1")
	}
	at := g.AdjT() // rows = V2 vertices = columns of A
	n := g.NumV2()
	var total int64
	for p0 := 0; p0 < n; p0 += panel {
		p1 := p0 + panel
		if p1 > n {
			p1 = n
		}
		a1t := rowSlice(at, p0, p1) // A1ᵀ: panel columns as rows
		a0 := rowSlice(at, 0, p0)   // A0ᵀ: processed columns as rows
		// Cross wedges: W = A1ᵀ·A0 = a1t · (a0)ᵀ.
		if a0.R > 0 {
			w := sparse.MxM(a1t, sparse.Transpose(a0), sparse.PlusTimes)
			for _, beta := range w.Val {
				total += beta * (beta - 1) / 2
			}
		}
		// Within-panel pairs: strictly upper part of A1ᵀ·A1.
		wp := sparse.MxM(a1t, sparse.Transpose(a1t), sparse.PlusTimes)
		for i := 0; i < wp.R; i++ {
			row := wp.Row(i)
			vals := wp.RowVals(i)
			for k, j := range row {
				if int(j) > i {
					beta := vals[k]
					total += beta * (beta - 1) / 2
				}
			}
		}
	}
	return total
}

// rowSlice views rows [lo, hi) of a CSR as a standalone matrix. The
// slice shares column storage; Ptr is rebased.
func rowSlice(a *sparse.CSR, lo, hi int) *sparse.CSR {
	ptr := make([]int64, hi-lo+1)
	base := a.Ptr[lo]
	for i := lo; i <= hi; i++ {
		ptr[i-lo] = a.Ptr[i] - base
	}
	out := &sparse.CSR{R: hi - lo, C: a.C, Ptr: ptr, Col: a.Col[base:a.Ptr[hi]]}
	if a.Val != nil {
		out.Val = a.Val[base:a.Ptr[hi]]
	}
	return out
}

// WedgeCount returns the paper's equation (6) for both orientations:
// wedgesV1 counts wedges whose endpoints lie in V1 (wedge point in V2),
// wedgesV2 the symmetric quantity. Computed in closed form from the
// degree sequences: W = Σ C(deg, 2).
func WedgeCount(g *graph.Bipartite) (wedgesV1, wedgesV2 int64) {
	for v := 0; v < g.NumV2(); v++ {
		d := int64(g.DegreeV2(v))
		wedgesV1 += d * (d - 1) / 2
	}
	for u := 0; u < g.NumV1(); u++ {
		d := int64(g.DegreeV1(u))
		wedgesV2 += d * (d - 1) / 2
	}
	return wedgesV1, wedgesV2
}

// Caterpillars returns the number of paths of length 3 in g:
// Σ_{(u,v)∈E} (deg u − 1)(deg v − 1). A butterfly contains exactly four
// caterpillars, so this is the normalizer of the bipartite clustering
// coefficient.
func Caterpillars(g *graph.Bipartite) int64 {
	var total int64
	for u := 0; u < g.NumV1(); u++ {
		du := int64(g.DegreeV1(u)) - 1
		if du <= 0 {
			continue
		}
		for _, v := range g.NeighborsOfV1(u) {
			total += du * (int64(g.DegreeV2(int(v))) - 1)
		}
	}
	return total
}

// ClusteringCoefficient returns the bipartite clustering coefficient
// (Sanei-Mehri et al. [10], the metric the paper's introduction points
// at): 4·ΞG / caterpillars, the fraction of length-3 paths that close
// into butterflies. It is 1 for complete bipartite graphs and 0 for
// butterfly-free graphs; returns 0 when the graph has no caterpillars.
func ClusteringCoefficient(g *graph.Bipartite) float64 {
	cats := Caterpillars(g)
	if cats == 0 {
		return 0
	}
	return 4 * float64(CountAuto(g)) / float64(cats)
}
