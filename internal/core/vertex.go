package core

import (
	"sync"
	"sync/atomic"

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

// VertexButterflies returns the number of butterflies each vertex of
// the chosen side participates in — the vector s of equation (19)
// (with the ½ per-vertex coefficient; see the erratum note on
// dense.SpecVertexButterflies). Σ of the result is 2·ΞG.
//
// The computation exposes each vertex u once and accumulates wedge
// multiplicities β against partners w < u, crediting C(β, 2) to both
// endpoints, so each pair is touched exactly once.
func VertexButterflies(g *graph.Bipartite, side Side) []int64 {
	exposed, secondary := vertexOrient(g, side)
	s := make([]int64, exposed.R)
	ws := newWorkspace(exposed.R)
	vertexHalfInto(s, exposed, secondary, nil, ws)
	return s
}

// VertexButterfliesParallel computes the same vector with up to
// `threads` workers on the work-weighted schedule; results are
// identical to the sequential version.
func VertexButterfliesParallel(g *graph.Bipartite, side Side, threads int) []int64 {
	exposed, _ := vertexOrient(g, side)
	s := make([]int64, exposed.R)
	VertexButterfliesMaskedInto(s, g, side, nil, threads, nil)
	return s
}

// vertexHalfInto is the sequential half kernel: expose each (active)
// vertex u, accumulate β against partners w < u, credit C(β, 2) to both
// endpoints. Adds into s, which must be zeroed by the caller.
func vertexHalfInto(s []int64, exposed, secondary *sparse.CSR, active []bool, ws *workspace) {
	n := exposed.R
	acc, touched := ws.acc, ws.touched
	for u := 0; u < n; u++ {
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
			s[u] += b
			s[w] += b
			acc[w] = 0
		}
		touched = touched[:0]
	}
	ws.touched = touched
}

// vertexFullOne computes s[u] with the full (both-direction) partner
// enumeration — the race-free per-vertex unit of the parallel kernel.
func vertexFullOne(u int, exposed, secondary *sparse.CSR, active []bool, ws *workspace) int64 {
	acc, touched := ws.acc, ws.touched
	u32 := int32(u)
	for _, y := range exposed.Row(u) {
		for _, w := range secondary.Row(int(y)) {
			if w == u32 {
				continue
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
	var su int64
	for _, w := range touched {
		c := int64(acc[w])
		su += c * (c - 1) / 2
		acc[w] = 0
	}
	ws.touched = touched[:0]
	return su
}

// vertexSegPairs runs the full partner enumeration for neighbor-list
// segment [ylo, yhi) of hub u and exports the partial wedge counts for
// the reduction phase.
func vertexSegPairs(u, ylo, yhi int, exposed, secondary *sparse.CSR, active []bool, ws *workspace) []hubPair {
	acc, touched := ws.acc, ws.touched
	u32 := int32(u)
	for _, y := range exposed.Row(u)[ylo:yhi] {
		for _, w := range secondary.Row(int(y)) {
			if w == u32 {
				continue
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
	out := make([]hubPair, len(touched))
	for i, w := range touched {
		out[i] = hubPair{z: w, c: acc[w]}
		acc[w] = 0
	}
	ws.touched = touched[:0]
	return out
}

// vertexWork returns the per-vertex work vector of the full kernel and
// the per-neighbor segment-work closure used to split hubs.
func vertexWork(exposed, secondary *sparse.CSR, active []bool) ([]int64, func(k, yi int) int64) {
	if active == nil {
		work := workFullExposed(exposed, secondary)
		return work, func(k, yi int) int64 {
			d := secondary.RowDeg(int(exposed.Row(k)[yi]))
			if d <= 1 {
				return 0
			}
			return int64(d - 1)
		}
	}
	work, rowAct := workFullExposedMasked(exposed, secondary, active)
	return work, func(k, yi int) int64 {
		a := rowAct[exposed.Row(k)[yi]]
		if a <= 1 {
			return 0
		}
		return int64(a - 1)
	}
}

// VertexButterfliesMaskedInto fills s (len = side size) with per-vertex
// butterfly counts for the chosen side, counting only butterflies whose
// two exposed-side vertices are both active; entries of inactive
// vertices are zero, and active may be nil for an unmasked count. It
// runs on up to `threads` workers with scratch from a (nil allowed).
// s is zeroed first, so one buffer and one arena serve every round of a
// peeling loop without allocating (see TestTipRoundsArenaZeroAlloc).
func VertexButterfliesMaskedInto(s []int64, g *graph.Bipartite, side Side, active []bool, threads int, a *Arena) {
	exposed, secondary := vertexOrient(g, side)
	n := exposed.R
	if len(s) != n {
		panic("core: vertex output length mismatch")
	}
	if active != nil && len(active) != n {
		panic("core: active mask length mismatch")
	}
	for i := range s {
		s[i] = 0
	}
	if threads <= 1 {
		// The half kernel does 2× less wedge work than the parallel
		// full kernel and allocates nothing beyond the workspace.
		ws := a.get(n)
		vertexHalfInto(s, exposed, secondary, active, ws)
		a.put(ws)
		return
	}

	work, segW := vertexWork(exposed, secondary, active)
	sched := buildSchedule(work, false, threads, schedTuning{}, segW, exposed.RowDeg, nil, nil)
	if threads > len(sched.units) {
		threads = len(sched.units)
	}
	if threads <= 1 {
		ws := a.get(n)
		vertexHalfInto(s, exposed, secondary, active, ws)
		a.put(ws)
		return
	}

	parts := make([][][]hubPair, len(sched.spills))
	for i, sp := range sched.spills {
		parts[i] = make([][]hubPair, sp.segs)
	}
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	nUnits := len(sched.units)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := a.get(n)
			defer a.put(ws)
			for {
				i := int(cursor.Add(1)) - 1
				if i >= nUnits {
					break
				}
				u := &sched.units[i]
				switch u.kind {
				case unitChunk:
					for v := u.lo; v < u.hi; v++ {
						if active != nil && !active[v] {
							continue
						}
						s[v] = vertexFullOne(v, exposed, secondary, active, ws)
					}
				case unitYSeg:
					parts[u.spill][u.seg] = vertexSegPairs(u.hub, u.lo, u.hi, exposed, secondary, active, ws)
				}
			}
		}()
	}
	wg.Wait()

	// Reduce split hubs: merge the partial wedge counts and apply the
	// butterfly formula; each hub is written by exactly one reducer.
	if len(sched.spills) > 0 {
		ws := a.get(n)
		for i, sp := range sched.spills {
			acc, touched := ws.acc, ws.touched
			for _, seg := range parts[i] {
				for _, p := range seg {
					if acc[p.z] == 0 {
						touched = append(touched, p.z)
					}
					acc[p.z] += p.c
				}
			}
			s[sp.k] = flush(acc, &touched)
			ws.touched = touched
		}
		a.put(ws)
	}
}
