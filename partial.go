package butterfly

import "butterfly/internal/core"

// WedgePartial is one entry of a V1-centered wedge partial map: Count
// wedges (v—u—w) whose center u lies in the graph and whose endpoints
// V < W lie in V2. Partials are the unit of distributed butterfly
// counting: partition a graph's V1 side into edge-disjoint subgraphs,
// export each partition's partials, and MergeWedgePartials reduces
// them to the exact global count — the cross-node generalisation of
// the hub-split partial-pair reduction used by the parallel engine.
type WedgePartial = core.WedgePartial

// WedgePartials returns the graph's V1-centered wedge frequency map
// over V2 endpoint pairs, sorted by (V, W). For a graph that is one
// partition of a larger graph (same dimensions, subset of V1 rows
// populated), the result is exactly that partition's contribution to
// the global wedge multiset.
func (g *Graph) WedgePartials() []WedgePartial { return core.WedgePartials(g.g) }

// WedgePartialDelta returns the signed change in the wedge partial map
// between two versions of a graph whose mutations touched only the
// given V1 centers: ApplyWedgePartialDelta(before.WedgePartials(), Δ)
// reconstructs after.WedgePartials() exactly. Cost is proportional to
// the touched centers' wedge counts in both versions, not the graph —
// the incremental-maintenance kernel behind `/v1/internal/partial?since=`.
// Entries may carry negative counts (wedges destroyed by deletions).
func WedgePartialDelta(before, after *Graph, centers []int) []WedgePartial {
	return core.DiffPartials(
		core.WedgePartialsOf(after.g, centers),
		core.WedgePartialsOf(before.g, centers),
	)
}

// SumWedgePartialDeltas composes sorted signed deltas by summing
// counts per pair key, dropping pairs that cancel to zero — used to
// collapse a run of consecutive per-version deltas into one frame.
func SumWedgePartialDeltas(deltas ...[]WedgePartial) []WedgePartial {
	return core.SumPartialDeltas(deltas...)
}

// ApplyWedgePartialDelta merges a signed delta into a base partial
// map, dropping pairs that reach zero. It errors if any pair would go
// negative — the base does not match the delta's starting version —
// so callers (the cluster router) can fall back to a full re-fetch
// instead of propagating a corrupt merge.
func ApplyWedgePartialDelta(base, delta []WedgePartial) ([]WedgePartial, error) {
	return core.ApplyPartialDelta(base, delta)
}

// MergeWedgePartials reduces sorted wedge partials — typically one per
// V1 partition of a graph — to the exact butterfly count of the union:
// a k-way merge over pair keys followed by Σ C(β, 2). With a single
// argument it computes that graph's own count.
func MergeWedgePartials(parts ...[]WedgePartial) int64 {
	return core.CountFromPartials(parts...)
}
