package graph

import (
	"fmt"
	"sync/atomic"
)

// DegreeProfile is the cheap shape summary the adaptive execution
// policies read: per-side vertex counts, max and mean degrees, and the
// degree skew (max/mean). It is computed from the CSR row pointers in
// one O(|V1|+|V2|) pass — no edge traversal — and cached on the graph,
// so every policy decision after the first is a pointer load.
//
// Skew is the hub indicator: a side whose heaviest vertex carries many
// times the mean degree concentrates wedge work (and accumulator
// traffic) on few ids, which is what the aggregation-mode chooser and
// the degree-ordered relayout key off.
type DegreeProfile struct {
	NumV1, NumV2       int
	NumEdges           int64
	MaxDegV1, MaxDegV2 int
	MeanDegV1          float64
	MeanDegV2          float64
	SkewV1, SkewV2     float64
}

// Side returns the profile of one side as (width, maxDeg, meanDeg,
// skew), where width is the number of vertices on that side. sideV1
// selects V1.
func (p DegreeProfile) Side(sideV1 bool) (width, maxDeg int, meanDeg, skew float64) {
	if sideV1 {
		return p.NumV1, p.MaxDegV1, p.MeanDegV1, p.SkewV1
	}
	return p.NumV2, p.MaxDegV2, p.MeanDegV2, p.SkewV2
}

// String renders the profile in a compact one-line form.
func (p DegreeProfile) String() string {
	return fmt.Sprintf("profile(|V1|=%d maxdeg=%d mean=%.2f skew=%.1f, |V2|=%d maxdeg=%d mean=%.2f skew=%.1f)",
		p.NumV1, p.MaxDegV1, p.MeanDegV1, p.SkewV1,
		p.NumV2, p.MaxDegV2, p.MeanDegV2, p.SkewV2)
}

// computeProfile derives the profile from the row-pointer arrays only.
func computeProfile(g *Bipartite) *DegreeProfile {
	p := &DegreeProfile{
		NumV1:    g.NumV1(),
		NumV2:    g.NumV2(),
		NumEdges: g.NumEdges(),
	}
	for u := 0; u < p.NumV1; u++ {
		if d := g.adj.RowDeg(u); d > p.MaxDegV1 {
			p.MaxDegV1 = d
		}
	}
	for v := 0; v < p.NumV2; v++ {
		if d := g.adjT.RowDeg(v); d > p.MaxDegV2 {
			p.MaxDegV2 = d
		}
	}
	if p.NumV1 > 0 {
		p.MeanDegV1 = float64(p.NumEdges) / float64(p.NumV1)
	}
	if p.NumV2 > 0 {
		p.MeanDegV2 = float64(p.NumEdges) / float64(p.NumV2)
	}
	if p.MeanDegV1 > 0 {
		p.SkewV1 = float64(p.MaxDegV1) / p.MeanDegV1
	}
	if p.MeanDegV2 > 0 {
		p.SkewV2 = float64(p.MaxDegV2) / p.MeanDegV2
	}
	return p
}

// Profile returns the graph's degree profile, computing it on first use
// and caching it for the graph's lifetime (the graph is immutable, so
// the profile never invalidates). Safe for concurrent use; a race on
// first use computes the identical value twice and one copy wins.
func (g *Bipartite) Profile() DegreeProfile {
	if p := g.prof.Load(); p != nil {
		return *p
	}
	p := computeProfile(g)
	g.prof.CompareAndSwap(nil, p)
	return *g.prof.Load()
}

// relayout bundles the cached degree-ordered twin with the permutations
// that translate between the public and relayouted id spaces.
type relayout struct {
	g *Bipartite
	// permV1[newID] = oldID, and likewise permV2.
	permV1, permV2 []int32
}

// DegreeOrdered returns the graph relabeled so vertex 0 of each side
// has the largest degree, with the adjacency repacked contiguously in
// the new order — the cache-conscious layout the counting kernels
// stream. The twin is built once per graph and then cached, so repeated
// counts — serving traffic, -all sweeps, peeling oracles — pay only a
// pointer load. The build is O(|V1| + |V2| + |E|) with no comparison
// sort: counting sorts over the degrees, one pass writing the permuted
// rows and two counting-sort transposes. The permutations translate
// ids: permV1[newID] = oldID (and likewise permV2).
//
// The relayout concentrates two access patterns:
//
//   - wedge accumulation: partner ids of hub wedges collapse into the
//     low indices of the accumulator array, keeping the hot counters in
//     cache no matter how wide the exposed side is;
//   - intersection: hub neighbor lists, the rows every merge touches,
//     pack into the first bytes of the CSR's column array.
//
// Butterfly counts are invariant under relabeling (the paper's
// family-equivalence result), so callers may count on the twin and
// report the result for the original graph unchanged. Per-vertex and
// per-edge outputs must be translated through the permutations; the
// counting core only uses the twin for scalar counts.
//
// Safe for concurrent use; a race on first use builds the twin twice
// and one copy wins.
func (g *Bipartite) DegreeOrdered() (h *Bipartite, permV1, permV2 []int32) {
	if rl := g.degOrd.Load(); rl != nil {
		return rl.g, rl.permV1, rl.permV2
	}
	h, p1, p2 := g.relabelByDegree()
	g.degOrd.CompareAndSwap(nil, &relayout{g: h, permV1: p1, permV2: p2})
	rl := g.degOrd.Load()
	return rl.g, rl.permV1, rl.permV2
}

// profCache and degOrdCache are the lazily-populated caches embedded in
// Bipartite. They live in their own struct types so Bipartite's
// composite literals elsewhere in the package need no changes.
type profCache = atomic.Pointer[DegreeProfile]
type degOrdCache = atomic.Pointer[relayout]
