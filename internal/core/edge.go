package core

import (
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

// EdgeSupportInto returns the support matrix S_w of equation (25): a
// matrix with the pattern of A whose (u, v) value is the number of
// butterflies containing the edge (u, v). Σ of all supports is 4·ΞG (a
// butterfly has four edges). vals (len ≥ NNZ, or nil to allocate)
// receives the values in A's flat edge order and the result shares A's
// pattern; scratch comes from the arena (nil allowed), so a peeling
// loop that reuses vals and the arena allocates only the CSR header.
//
// Per exposed vertex u the wedge multiplicities β_uw are accumulated
// once (equation (23)'s Σ_w |N(u)∩N(w)| term); each incident edge
// (u, v) then gathers Σ_{w∈N(v),w≠u}(β_uw − 1), which is equation (24)
// evaluated without materializing AAᵀA — the masked-SpGEMM structure of
// (25) executed one row at a time.
//
// Orientation: the sweep's work is Σ_{v∈V2} deg(v)² when exposing V1
// and Σ_{u∈V1} deg(u)² when exposing V2, so the sweep exposes the
// cheaper side at every thread count. A V2 sweep fills arena scratch in
// Aᵀ's flat order, which a per-column cursor then scatters back into
// A's order.
//
// With threads > 1, rows are scheduled by work units — a hub row caps
// its chunk — but stay atomic, because the per-edge gather needs the
// row's complete β accumulator; splitting hub rows is the counting
// kernel's job (see countKernel), not the support sweep's.
func EdgeSupportInto(vals []int64, g *graph.Bipartite, threads int, a *Arena) *sparse.CSR {
	adj, adjT := g.Adj(), g.AdjT()
	nnz := adj.NNZ()
	if vals == nil {
		vals = make([]int64, nnz)
	}
	out := &sparse.CSR{R: adj.R, C: adj.C, Ptr: adj.Ptr, Col: adj.Col, Val: vals[:nnz]}
	if degSquares(adjT) <= degSquares(adj) {
		supportSweep(out.Val, adj, adjT, threads, a)
		return out
	}
	ws := a.get(0)
	if int64(cap(ws.ebuf)) < nnz+int64(adjT.R) {
		ws.ebuf = make([]int64, nnz+int64(adjT.R))
	}
	tvals, next := ws.ebuf[:nnz], ws.ebuf[nnz:nnz+int64(adjT.R)]
	supportSweep(tvals, adjT, adj, threads, a)
	copy(next, adjT.Ptr[:adjT.R])
	for k, v := range adj.Col {
		out.Val[k] = tvals[next[v]]
		next[v]++
	}
	a.put(ws)
	return out
}

// degSquares returns Σ over the rows of m of deg². A sweep that
// accumulates β through the rows of m does that many wedge steps.
func degSquares(m *sparse.CSR) int64 {
	var c int64
	for r := 0; r < m.R; r++ {
		d := m.Ptr[r+1] - m.Ptr[r]
		c += d * d
	}
	return c
}

// supportSweep fills vals, in exposed's flat edge order, with the
// support of every edge, on up to `threads` workers.
func supportSweep(vals []int64, exposed, secondary *sparse.CSR, threads int, a *Arena) {
	n := exposed.R
	if threads > 1 {
		wss := rowWorkers(edgeWorkPerRow(exposed, secondary), threads, n, a, func(lo, hi int, ws *workspace) {
			supportRows(exposed, secondary, lo, hi, vals, ws)
		})
		if wss != nil {
			for _, ws := range wss {
				a.put(ws)
			}
			return
		}
	}
	ws := a.get(n)
	supportRows(exposed, secondary, 0, n, vals, ws)
	a.put(ws)
}

// edgeWorkPerRow returns the modeled support work of each exposed row:
// Σ over incident columns v of deg(v), the row-scan cost shared by the
// β-accumulation and gather passes.
func edgeWorkPerRow(exposed, secondary *sparse.CSR) []int64 {
	work := make([]int64, exposed.R)
	for u := range work {
		var w int64
		for _, v := range exposed.Row(u) {
			w += int64(secondary.RowDeg(int(v)))
		}
		work[u] = w
	}
	return work
}

// supportRows fills support values for exposed rows [lo, hi).
func supportRows(exposed, secondary *sparse.CSR, lo, hi int, vals []int64, ws *workspace) {
	acc, touched := ws.acc, ws.touched
	for u := lo; u < hi; u++ {
		u32 := int32(u)
		urow := exposed.Row(u)
		// β_uw for every partner w sharing a neighbor with u.
		for _, v := range urow {
			for _, w := range secondary.Row(int(v)) {
				if w == u32 {
					continue
				}
				if acc[w] == 0 {
					touched = append(touched, w)
				}
				acc[w]++
			}
		}
		// Gather per incident edge: support(u,v) = Σ_{w∈N(v),w≠u}(β_uw−1).
		base := exposed.Ptr[u]
		for k, v := range urow {
			var s int64
			for _, w := range secondary.Row(int(v)) {
				if w == u32 {
					continue
				}
				s += int64(acc[w]) - 1
			}
			vals[base+int64(k)] = s
		}
		for _, w := range touched {
			acc[w] = 0
		}
		touched = touched[:0]
	}
	ws.touched = touched
}

// EdgeSupportSpGEMM computes the support matrix by executing equation
// (25) literally on the sparse substrate:
//
//	S_w = (AAᵀA − diag(AAᵀ)·1ᵀ − 1·diag(AᵀA)ᵀ + J) ∘ A
//
// The (AAᵀ)·A term is evaluated with a masked SpGEMM (only positions
// where A stores an edge are kept), so the dense-ish product never
// materializes; the rank-one correction terms reduce to the endpoint
// degrees at each stored edge. It is the "pure linear algebra" per-edge
// algorithm — a cross-validation of the accumulator sweep and the
// masked-product kernel, asymptotically equivalent but constant-factor
// heavier (it materializes AAᵀ).
func EdgeSupportSpGEMM(g *graph.Bipartite) *sparse.CSR {
	adj, adjT := g.Adj(), g.AdjT()
	b := sparse.MxM(adj, adjT, sparse.PlusTimes)            // AAᵀ
	core := sparse.MxMMasked(b, adj, adj, sparse.PlusTimes) // (AAᵀA) ∘ A
	out := core.Clone()
	for u := 0; u < out.R; u++ {
		du := int64(g.DegreeV1(u))
		row := out.Row(u)
		vals := out.Val[out.Ptr[u]:out.Ptr[u+1]]
		for k, v := range row {
			vals[k] -= du + int64(g.DegreeV2(int(v))) - 1
		}
	}
	return out
}

// CountFromEdgeSupport recovers ΞG from a support matrix: Σ/4.
// Used as a consistency check and by the wing-peeling code.
func CountFromEdgeSupport(s *sparse.CSR) int64 {
	total := sparse.SumAll(s)
	if total%4 != 0 {
		panic("core: edge-support sum not divisible by 4")
	}
	return total / 4
}
