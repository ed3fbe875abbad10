package core

// WingPeelState: the compacted alive-adjacency structure behind the
// incremental wing-peeling engine's hot path.
//
// Sweeping the static CSR rows would make each dying edge pay for its
// endpoints' *original* degrees even when almost everything is already
// peeled — late in a decomposition the rows are graveyards and the
// sweep is mostly skip-work. This structure removes the graveyards:
// every exposed row and every secondary (transpose) row is kept
// compacted to its still-present edges by O(1) swap-deletion, so a
// dying edge's sweep costs only *surviving* degrees. Total engine work
// then genuinely tracks the butterflies destroyed plus the surviving
// adjacency actually inspected, which is what makes the delta engine
// scale on deep peeling hierarchies.
//
// A butterfly through dying edge e = (u, v) is {u, w} × {v, p}, so it
// can be found from either endpoint: map N⁺(u) and scan row(w) for
// every partner w ∈ N⁺(v) (Σ_{w∈N⁺(v)} deg⁺ w entries), or map N⁺(v)
// and scan trow(p) for every partner p ∈ N⁺(u) (Σ_{p∈N⁺(u)} deg⁺ p
// entries). Both enumerate the same butterflies, so each dying edge
// takes the cheaper one — the paper's "the side you expose decides the
// wedge work", applied per edge. The cost model reads only surviving
// degrees, never vertex ids, so it picks the same direction in any
// relabeling of the graph (TestWingDeltaRelayoutAgreement).
//
// Compaction gives up sorted rows, so the sweep always resolves the
// intersection through the workspace position map, whose lookups
// tolerate unsorted rows.
//
// Concurrency contract: rows are immutable during a round — workers of
// WingStateDeltaBatch only read them — and RemoveEdge is called by the
// engine between rounds, after the batch kernel returned.

import "butterfly/internal/graph"

// compactRows is one adjacency direction kept compacted to the present
// edges: segment x is col/eid[start[x] : start[x]+n[x]].
type compactRows struct {
	start []int64
	n     []int32
	col   []int32 // far endpoint of the edge
	eid   []int64 // flat edge id
	pos   []int32 // edge id -> index within its segment
}

// seg returns the compacted segment of x: parallel slices of far
// endpoints and edge ids.
func (c *compactRows) seg(x int32) ([]int32, []int64) {
	b, l := c.start[x], int64(c.n[x])
	return c.col[b : b+l], c.eid[b : b+l]
}

// remove swap-deletes edge e from segment x in O(1).
func (c *compactRows) remove(x int32, e int64) {
	base := c.start[x]
	last := base + int64(c.n[x]) - 1
	i := base + int64(c.pos[e])
	c.col[i] = c.col[last]
	c.eid[i] = c.eid[last]
	c.pos[c.eid[i]] = int32(i - base)
	c.n[x]--
}

// WingPeelState holds both adjacency directions compacted to the edges
// that are still present (alive, or dying in the current round until
// RemoveEdge is called). Edge identities are flat indices into g.Adj(),
// as everywhere else in the peeling stack.
type WingPeelState struct {
	r compactRows // exposed rows: col is the secondary endpoint
	t compactRows // secondary (transpose) rows: col is the exposed endpoint

	edgeU []int32 // flat edge id -> exposed endpoint
	edgeV []int32 // flat edge id -> secondary endpoint
}

// NewWingPeelState builds the compacted structure with every edge
// present, in O(nnz).
func NewWingPeelState(g *graph.Bipartite) *WingPeelState {
	adj, adjT := g.Adj(), g.AdjT()
	nnz := int(adj.NNZ())
	s := &WingPeelState{
		r: compactRows{
			start: adj.Ptr,
			n:     make([]int32, adj.R),
			col:   make([]int32, nnz),
			eid:   make([]int64, nnz),
			pos:   make([]int32, nnz),
		},
		t: compactRows{
			start: adjT.Ptr,
			n:     make([]int32, adjT.R),
			col:   make([]int32, nnz),
			eid:   make([]int64, nnz),
			pos:   make([]int32, nnz),
		},
		edgeU: make([]int32, nnz),
		edgeV: make([]int32, nnz),
	}
	copy(s.r.col, adj.Col)
	for u := 0; u < adj.R; u++ {
		base := adj.Ptr[u]
		end := adj.Ptr[u+1]
		s.r.n[u] = int32(end - base)
		for k := base; k < end; k++ {
			s.r.eid[k] = k
			s.r.pos[k] = int32(k - base)
			s.edgeU[k] = int32(u)
			s.edgeV[k] = adj.Col[k]
		}
	}
	copy(s.t.col, adjT.Col)
	tmap := transposeEdgeMap(g)
	for v := 0; v < adjT.R; v++ {
		base := adjT.Ptr[v]
		end := adjT.Ptr[v+1]
		s.t.n[v] = int32(end - base)
		for j := base; j < end; j++ {
			e := tmap[j]
			s.t.eid[j] = e
			s.t.pos[e] = int32(j - base)
		}
	}
	return s
}

// transposeEdgeMap returns tmap with tmap[j] equal to the flat edge id
// in g.Adj() of the edge stored at flat position j of g.AdjT(), in
// O(nnz).
func transposeEdgeMap(g *graph.Bipartite) []int64 {
	adj, adjT := g.Adj(), g.AdjT()
	tmap := make([]int64, adj.NNZ())
	next := make([]int64, adjT.R)
	copy(next, adjT.Ptr[:adjT.R])
	for u := 0; u < adj.R; u++ {
		for k := adj.Ptr[u]; k < adj.Ptr[u+1]; k++ {
			v := adj.Col[k]
			tmap[next[v]] = k
			next[v]++
		}
	}
	return tmap
}

// Present reports whether edge e is still in the structure (alive or
// dying in the current round). Mostly for tests.
func (s *WingPeelState) Present(e int64) bool {
	u := s.edgeU[e]
	i := s.r.start[u] + int64(s.r.pos[e])
	return s.r.pos[e] < s.r.n[u] && s.r.eid[i] == e
}

// RemoveEdge deletes edge e from both directions by swap-deletion in
// O(1). The engine calls it for every batch edge after the round's
// delta kernel returned; removing an edge twice is a bug.
func (s *WingPeelState) RemoveEdge(e int64) {
	s.r.remove(s.edgeU[e], e)
	s.t.remove(s.edgeV[e], e)
}

// width is the accumulator width a sweep needs: either side's vertices
// may be mapped, depending on the direction.
func (s *WingPeelState) width() int {
	return max(len(s.r.n), len(s.t.n))
}

// sweepDir selects the endpoint a dying edge's sweep walks from.
// Production code always passes sweepCheaper; tests force one side.
type sweepDir int

const (
	sweepCheaper sweepDir = iota
	sweepFromU            // walk the partners p of u, scanning trow(p)
	sweepFromV            // walk the partners w of v, scanning row(w)
)

// sweepCost is the number of entries a sweep walking segment y of far
// scans: Σ over y's partners z of the surviving length of near's
// segment z.
func sweepCost(far, near *compactRows, y int32) int64 {
	cols, _ := far.seg(y)
	var c int64
	for _, z := range cols {
		c += int64(near.n[z])
	}
	return c
}

// fromU reports whether dying edge (u, v) is cheaper to sweep from u
// than from v; ties go to v.
func (s *WingPeelState) fromU(u, v int32) bool {
	return sweepCost(&s.r, &s.t, u) < sweepCost(&s.t, &s.r, v)
}

// WingStateDeltaBatch decrements sup (indexed by flat edge id of
// g.Adj()) for every surviving edge that lost butterflies when the
// batch of edges was peeled. The caller must have inBatch[e] = true
// for every batch edge (present in s, not yet removed) and clears it —
// and calls s.RemoveEdge — after the kernel returns. alive is the
// engine's liveness array (false for batch edges already), used only
// to guard decrements. Decrements are deduplicated per destroyed
// butterfly via the minimum-batch-id assignment rule, so the kernel is
// exact for batches of any size and parallelizes over batch edges
// (threads > 1: workers subtract into private edge-indexed partial
// vectors, merged into sup after the join, as in TipDeltaBatch).
// First-touched surviving edges are appended to *touched once, using
// dirty for deduplication as in TipDeltaBatch.
func WingStateDeltaBatch(s *WingPeelState, batch []int64, alive, inBatch []bool, sup []int64, dirty []int32, touched *[]int64, threads int, a *Arena) {
	wingStateDeltaBatch(s, batch, alive, inBatch, sup, dirty, touched, threads, a, sweepCheaper)
}

// wingStateDeltaBatch is WingStateDeltaBatch with the sweep direction
// exposed for tests.
func wingStateDeltaBatch(s *WingPeelState, batch []int64, alive, inBatch []bool, sup []int64, dirty []int32, touched *[]int64, threads int, a *Arena, dir sweepDir) {
	if len(batch) == 0 {
		return
	}
	if threads > len(batch) {
		threads = len(batch)
	}
	if threads <= 1 || len(batch) < minDeltaParallelBatch {
		ws := a.get(s.width())
		k := wingKernel{s: s, inBatch: inBatch, alive: alive, sup: sup, dirty: dirty, out: touched, dir: dir, acc: ws.acc}
		for _, e := range batch {
			k.edge(e)
		}
		a.put(ws)
		return
	}

	nnz := len(sup)
	wss := runWorkers(len(batch), threads, s.width(), a, func(i int, ws *workspace) {
		k := wingKernel{s: s, inBatch: inBatch, alive: alive, sup: ws.partial(nnz), out: &ws.eout, par: true, dir: dir, acc: ws.acc}
		k.edge(batch[i])
	})
	for _, ws := range wss {
		mergePartials(sup, ws.part, ws.eout, dirty, touched)
		ws.eout = ws.eout[:0]
		a.put(ws)
	}
}

// wingKernel is one worker's view of a WingStateDeltaBatch round.
type wingKernel struct {
	s              *WingPeelState
	inBatch, alive []bool
	sup            []int64  // the shared supports, or a worker's partial vector when par
	dirty          []int32  // sequential path only
	out            *[]int64 // receives first-touched edge ids
	par            bool     // other workers run concurrently: sup is private
	dir            sweepDir
	acc            []int32 // workspace position map, all-zero at rest
}

// edge enumerates the butterflies assigned to dying edge e over the
// compacted rows, from whichever endpoint k.dir selects.
func (k *wingKernel) edge(e int64) {
	s := k.s
	u, v := s.edgeU[e], s.edgeV[e]
	if k.dir == sweepFromU || k.dir == sweepCheaper && s.fromU(u, v) {
		k.sweep(e, v, u, &s.t, &s.r)
	} else {
		k.sweep(e, u, v, &s.r, &s.t)
	}
}

// sweep enumerates the butterflies through dying edge e = (x, y), where
// x's segment lives in near and y's in far. It maps x's partners into
// the position map, walks y's partners z, and scans each z's near
// segment for q ≠ y with a position: {x, z} × {y, q} is a butterfly
// with companion edges (z, y), (x, q) and (z, q). Every edge it sees is
// present — alive or in this round's batch — so the only filtering left
// is the assignment rule.
func (k *wingKernel) sweep(e int64, x, y int32, near, far *compactRows) {
	inBatch, acc := k.inBatch, k.acc
	xcols, xeids := near.seg(x)
	for i, q := range xcols {
		acc[q] = int32(i) + 1
	}
	zcols, zeids := far.seg(y)
	for zi, z := range zcols {
		if z == x {
			continue
		}
		ezy := zeids[zi]
		if inBatch[ezy] && ezy < e {
			continue // assigned to a smaller-id batch edge
		}
		qcols, qeids := near.seg(z)
		for qi, q := range qcols {
			if q == y {
				continue
			}
			pos := acc[q]
			if pos == 0 {
				continue
			}
			exq := xeids[pos-1]
			ezq := qeids[qi]
			if inBatch[exq] && exq < e || inBatch[ezq] && ezq < e {
				continue
			}
			k.dec(ezy)
			k.dec(exq)
			k.dec(ezq)
		}
	}
	for _, q := range xcols {
		acc[q] = 0
	}
}

// dec subtracts one destroyed butterfly from edge f's support if f
// survives the round, recording f on its first decrement: through the
// dirty mark on the sequential path, and on a parallel worker when its
// partial entry leaves zero (mergePartials deduplicates across
// workers).
func (k *wingKernel) dec(f int64) {
	if !k.alive[f] {
		return
	}
	if k.par {
		if k.sup[f] == 0 {
			*k.out = append(*k.out, f)
		}
		k.sup[f]--
		return
	}
	k.sup[f]--
	if k.dirty[f] == 0 {
		k.dirty[f] = 1
		*k.out = append(*k.out, f)
	}
}
