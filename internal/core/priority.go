package core

// The priority-wedge pass of Wang, Qin, Zhang, Zhang & Lin, "Efficient
// Butterfly Counting for Large Bipartite Networks" (arXiv:1812.00283).
//
// Every vertex of both sides gets a priority: higher degree first, ties
// to the lower global id (V1 vertex u is u, V2 vertex v is |V1|+v). A
// wedge s–x–w obeys the priority when its middle x and its end w both
// rank below its start s. A butterfly's highest-priority vertex s and
// the vertex w opposite it fix two priority-obeying wedges from s to w,
// and every pair of such wedges is a butterfly, so
//
//	ΞG = Σ_s Σ_w C(acc_w, 2),
//
// with acc_w the number of priority-obeying wedges from s to w: the
// paper's aggregation identity Σ C(β, 2) restricted to the wedges that
// obey the priority. The same wedges, grouped by (s, w), are the blooms
// of the bloom index (bloom.go).
//
// The pass renumbers the graph by rank and keeps each row sorted by
// rank, so the wedges from s are two nested row suffixes read back to
// front, each loop stopping at the first rank not below s: the
// contiguous, early-breaking layout of the paper's cache-aware BFC-VP++.

import (
	"math"
	"slices"

	"butterfly/internal/graph"
)

// CountVertexPriority counts the butterflies of g as Σ_s Σ_w
// C(acc_w, 2) over priority-obeying wedges, each start s swept once.
// With threads > 1 the starts run over work-weighted chunks on the
// shared worker pool; the sum is kept per start, so the result does not
// depend on the thread count. Scratch comes from the arena (nil
// allowed).
func CountVertexPriority(g *graph.Bipartite, threads int, a *Arena) int64 {
	b := newPriorityRows(g, false)
	per := make([]int64, len(b.ptr)-1)
	b.run(threads, a, func(s int32, ws *workspace) {
		acc := ws.acc
		for _, w := range b.count(s, ws) {
			c := int64(acc[w])
			per[s] += c * (c - 1) / 2
			acc[w] = 0
		}
		ws.touched = ws.touched[:0]
	})
	var sum int64
	for _, c := range per {
		sum += c
	}
	return sum
}

// priorityRows is the graph renumbered by priority: vertex r is the
// vertex of rank r (0 is the highest priority), and its row lists its
// neighbours' ranks in ascending order, with the flat edge ids of
// g.Adj() when the rows were built with edges. The priority-obeying
// wedges from start s are then two nested row suffixes: the middles
// x > s of s's row and, for each, the ends w > s of x's row.
type priorityRows struct {
	ptr  []int64 // vertex r's row is nbr/eid[ptr[r] : ptr[r+1]]
	nbr  []int32 // neighbour rank, ascending within a row
	eid  []int32 // flat edge id in g.Adj(); nil when built without edges
	work []int64 // per start: its scan steps, for the parallel schedule
}

// newPriorityRows ranks the |V1|+|V2| vertices by descending degree,
// ties to the lower global id, with a counting sort over degrees, and
// scatters the edges into rank-sorted rows by visiting the vertices in
// rank order; with edges it records each entry's flat edge id too.
// Ranks and edge ids are int32: a graph with 2^31 vertices or more,
// or, with edges, 2^31 edges or more, panics.
func newPriorityRows(g *graph.Bipartite, edges bool) *priorityRows {
	adj, adjT := g.Adj(), g.AdjT()
	m, n := adj.R, adjT.R
	if m+n > math.MaxInt32 || edges && adj.NNZ() > math.MaxInt32 {
		panic("core: priority rows need fewer than 2^31 vertices and edges")
	}
	deg := func(x int) int64 {
		if x < m {
			return adj.Ptr[x+1] - adj.Ptr[x]
		}
		return adjT.Ptr[x-m+1] - adjT.Ptr[x-m]
	}
	var maxDeg int64
	for x := 0; x < m+n; x++ {
		maxDeg = max(maxDeg, deg(x))
	}
	// slot[d] counts, then offsets, the vertices of degree > maxDeg − d.
	slot := make([]int32, maxDeg+2)
	for x := 0; x < m+n; x++ {
		slot[maxDeg-deg(x)+1]++
	}
	for d := 1; d < len(slot); d++ {
		slot[d] += slot[d-1]
	}
	rank := make([]int32, m+n)
	order := make([]int32, m+n)
	for x := 0; x < m+n; x++ {
		r := slot[maxDeg-deg(x)]
		slot[maxDeg-deg(x)]++
		rank[x], order[r] = r, int32(x)
	}

	b := &priorityRows{
		ptr: make([]int64, m+n+1),
		nbr: make([]int32, 2*adj.NNZ()),
	}
	var tmap []int32
	if edges {
		b.eid = make([]int32, 2*adj.NNZ())
		tmap = transposeEdgeMap(g)
	}
	for r, x := range order {
		b.ptr[r] = deg(int(x))
	}
	prefix(b.ptr)
	next := slices.Clone(b.ptr[:m+n])
	for r, x := range order {
		rows, eids, far := adj, []int32(nil), m
		if int(x) >= m {
			rows, eids, far, x = adjT, tmap, 0, x-int32(m)
		}
		for j := rows.Ptr[x]; j < rows.Ptr[x+1]; j++ {
			y := rank[far+int(rows.Col[j])]
			b.nbr[next[y]] = int32(r)
			if edges {
				e := int32(j)
				if eids != nil {
					e = eids[j]
				}
				b.eid[next[y]] = e
			}
			next[y]++
		}
	}
	return b
}

// count accumulates start s's priority-obeying wedge multiplicity per
// end w into ws.acc and returns the touched ends.
func (b *priorityRows) count(s int32, ws *workspace) []int32 {
	ptr, nbr := b.ptr, b.nbr
	acc, touched := ws.acc, ws.touched[:0]
	for j := ptr[s+1] - 1; j >= ptr[s] && nbr[j] > s; j-- {
		x := nbr[j]
		for i := ptr[x+1] - 1; i >= ptr[x] && nbr[i] > s; i-- {
			w := nbr[i]
			if acc[w] == 0 {
				touched = append(touched, w)
			}
			acc[w]++
		}
	}
	ws.touched = touched
	return touched
}

// run calls start(s, ws) for every start s: over chunks of starts
// weighted by their scan steps when threads > 1, else in order on one
// workspace of width |V1|+|V2|.
func (b *priorityRows) run(threads int, a *Arena, start func(s int32, ws *workspace)) {
	n := len(b.ptr) - 1
	if threads > 1 {
		if b.work == nil {
			b.work = make([]int64, n)
			for s := range b.work {
				for j := b.ptr[s+1] - 1; j >= b.ptr[s] && int(b.nbr[j]) > s; j-- {
					x := b.nbr[j]
					b.work[s] += 1 + b.ptr[x+1] - b.ptr[x]
				}
			}
		}
		wss := rowWorkers(b.work, threads, n, a, func(lo, hi int, ws *workspace) {
			for s := lo; s < hi; s++ {
				start(int32(s), ws)
			}
		})
		if wss != nil {
			for _, ws := range wss {
				a.put(ws)
			}
			return
		}
	}
	ws := a.get(n)
	for s := 0; s < n; s++ {
		start(int32(s), ws)
	}
	a.put(ws)
}

// prefix turns counts c[0..n-1] into exclusive prefix offsets in place
// and stores the total in c[n].
func prefix(c []int64) {
	var sum int64
	for i, v := range c[:len(c)-1] {
		c[i] = sum
		sum += v
	}
	c[len(c)-1] = sum
}

// transposeEdgeMap returns tmap with tmap[j] equal to the flat edge id
// in g.Adj() of the edge stored at flat position j of g.AdjT(), in
// O(nnz).
func transposeEdgeMap(g *graph.Bipartite) []int32 {
	adj, adjT := g.Adj(), g.AdjT()
	tmap := make([]int32, adj.NNZ())
	next := make([]int64, adjT.R)
	copy(next, adjT.Ptr[:adjT.R])
	for k, v := range adj.Col {
		tmap[next[v]] = int32(k)
		next[v]++
	}
	return tmap
}
