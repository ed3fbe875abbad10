package core

import (
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

// Side selects a bipartition side for per-vertex quantities.
type Side int

const (
	// SideV1 refers to the row side of the biadjacency matrix.
	SideV1 Side = iota
	// SideV2 refers to the column side.
	SideV2
)

// String names the side.
func (s Side) String() string {
	if s == SideV1 {
		return "V1"
	}
	return "V2"
}

func vertexOrient(g *graph.Bipartite, side Side) (exposed, secondary *sparse.CSR) {
	if side == SideV2 {
		return g.AdjT(), g.Adj()
	}
	return g.Adj(), g.AdjT()
}

// seedSweep selects how VertexButterfliesMaskedInto enumerates wedges.
// Production code always passes seedCheaper; tests force one sweep.
type seedSweep int

const (
	seedCheaper   seedSweep = iota
	seedSameSide            // walk the requested side's rows: Σ_{y∈secondary} deg(y)²/2 wedge steps
	seedCrossSide           // walk the other side's rows: Σ_{u∈exposed} deg(u)² wedge steps
)

// seedCross reports whether the cross-side sweep does less wedge work
// than the same-side half sweep for the requested (exposed) side.
func seedCross(exposed, secondary *sparse.CSR) bool {
	return degSquares(exposed) < degSquares(secondary)/2
}

// VertexButterfliesMaskedInto fills s (len = side size) with the number
// of butterflies each vertex of the chosen side participates in — the
// vector s of equation (19), with the ½ per-vertex coefficient (see the
// erratum note on dense.SpecVertexButterflies); Σ of an unmasked result
// is 2·ΞG. Only butterflies whose two side vertices are both active
// count; entries of inactive vertices are zero, and active may be nil
// for an unmasked count. It runs on up to `threads` workers with scratch
// from a (nil allowed). s is zeroed first, so one buffer and one arena
// serve every round of a peeling loop, and the one-thread path allocates
// nothing (see TestTipRoundsArenaZeroAlloc).
//
// Two sweeps compute the vector; it takes the one with less wedge work
// at every thread count:
//
//   - same side: expose each active vertex u, accumulate the wedge
//     multiplicities β_uw against active partners w < u, and credit
//     C(β_uw, 2) to both endpoints — Σ_{y∈secondary} deg(y)²/2 steps;
//   - cross side: for each vertex y of the other side, accumulate
//     β_{yy′} — the active vertices adjacent to both y and y′ — against
//     every y′ < y, then credit each active u ∈ N(y) with
//     Σ_{y′∈N(u), y′<y} (β_{yy′} − 1), one per butterfly {u, w} × {y′, y}
//     — Σ_{u∈exposed} deg(u)² steps.
//
// The cross sweep is taken exactly when Σ_{u∈exposed} deg(u)² is below
// Σ_{y∈secondary} deg(y)²/2. With threads > 1, workers take
// work-weighted chunks of whole rows of the swept side and add into a
// private partial vector held in their arena workspace, which is summed
// into s after the join.
func VertexButterfliesMaskedInto(s []int64, g *graph.Bipartite, side Side, active []bool, threads int, a *Arena) {
	vertexButterfliesInto(s, g, side, active, threads, a, seedCheaper)
}

// vertexButterfliesInto is VertexButterfliesMaskedInto with the sweep
// exposed for tests.
func vertexButterfliesInto(s []int64, g *graph.Bipartite, side Side, active []bool, threads int, a *Arena, sweep seedSweep) {
	exposed, secondary := vertexOrient(g, side)
	n := exposed.R
	if len(s) != n {
		panic("core: vertex output length mismatch")
	}
	if active != nil && len(active) != n {
		panic("core: active mask length mismatch")
	}
	clear(s)
	cross := sweep == seedCrossSide || sweep == seedCheaper && seedCross(exposed, secondary)
	rows, partners := exposed, secondary
	if cross {
		rows, partners = secondary, exposed
	}
	if threads > 1 {
		// A row's work is its β steps below it plus its own length.
		work := workPerExposed(rows, partners, false)
		for r := range work {
			work[r] += int64(rows.RowDeg(r))
		}
		wss := rowWorkers(work, threads, rows.R, a, func(lo, hi int, ws *workspace) {
			vertexRows(ws.partial(n), exposed, secondary, active, lo, hi, cross, ws)
		})
		if wss != nil {
			for _, ws := range wss {
				// A worker that claimed no chunk may hold no vector.
				part := ws.part[:min(n, len(ws.part))]
				for u, c := range part {
					s[u] += c
				}
				clear(part)
				a.put(ws)
			}
			return
		}
	}
	ws := a.get(rows.R)
	vertexRows(s, exposed, secondary, active, 0, rows.R, cross, ws)
	a.put(ws)
}

// vertexRows adds into out the per-vertex counts contributed by rows
// [lo, hi) of the swept side: exposed rows for the same-side sweep,
// secondary rows for the cross sweep.
func vertexRows(out []int64, exposed, secondary *sparse.CSR, active []bool, lo, hi int, cross bool, ws *workspace) {
	if cross {
		vertexCrossRows(out, exposed, secondary, active, lo, hi, ws)
	} else {
		vertexHalfRows(out, exposed, secondary, active, lo, hi, ws)
	}
}

// vertexHalfRows is the same-side sweep over exposed rows [lo, hi):
// each active u accumulates β against active partners w < u and credits
// C(β, 2) to both endpoints.
func vertexHalfRows(out []int64, exposed, secondary *sparse.CSR, active []bool, lo, hi int, ws *workspace) {
	acc, touched := ws.acc, ws.touched
	for u := lo; u < hi; u++ {
		if active != nil && !active[u] {
			continue
		}
		u32 := int32(u)
		for _, y := range exposed.Row(u) {
			for _, w := range secondary.Row(int(y)) {
				if w >= u32 {
					break
				}
				if active != nil && !active[w] {
					continue
				}
				if acc[w] == 0 {
					touched = append(touched, w)
				}
				acc[w]++
			}
		}
		for _, w := range touched {
			c := int64(acc[w])
			b := c * (c - 1) / 2
			out[u] += b
			out[w] += b
			acc[w] = 0
		}
		touched = touched[:0]
	}
	ws.touched = touched
}

// vertexCrossRows is the cross-side sweep over secondary rows [lo, hi):
// each y accumulates β_{yy′} through its active neighbors against every
// y′ < y, then credits each active neighbor u with
// Σ_{y′∈N(u), y′<y} (β_{yy′} − 1). Every pair {y′, y} is handled at its
// larger end, so each butterfly reaches each of its two exposed
// vertices exactly once.
func vertexCrossRows(out []int64, exposed, secondary *sparse.CSR, active []bool, lo, hi int, ws *workspace) {
	acc, touched := ws.acc, ws.touched
	for y := lo; y < hi; y++ {
		us := secondary.Row(y)
		if len(us) < 2 {
			continue
		}
		y32 := int32(y)
		for _, u := range us {
			if active != nil && !active[u] {
				continue
			}
			for _, z := range exposed.Row(int(u)) {
				if z >= y32 {
					break
				}
				if acc[z] == 0 {
					touched = append(touched, z)
				}
				acc[z]++
			}
		}
		if len(touched) == 0 {
			continue
		}
		for _, u := range us {
			if active != nil && !active[u] {
				continue
			}
			var c int64
			for _, z := range exposed.Row(int(u)) {
				if z >= y32 {
					break
				}
				c += int64(acc[z]) - 1
			}
			out[u] += c
		}
		for _, z := range touched {
			acc[z] = 0
		}
		touched = touched[:0]
	}
	ws.touched = touched
}
