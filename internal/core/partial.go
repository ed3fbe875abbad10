package core

import (
	"slices"

	"butterfly/internal/graph"
)

// WedgePartial is one entry of a V1-centered wedge partial: Count
// wedges (v—u—w) with center u in this graph's V1 and endpoints V < W
// in V2. It is the cross-node analogue of the hub-split partial-pair
// accumulator (kernel.go segPairs/reducePairs): C(β, 2) is not
// additive across partitions of the center side, so partitions export
// integer wedge counts and a reduction phase merges them before the
// butterfly formula is applied. The public butterfly.WedgePartial is
// an alias of this type.
type WedgePartial struct {
	V, W  int32
	Count int64
}

// PairKey packs a V2 endpoint pair into the 64-bit key that orders
// partials: V in the high half, W in the low half, so keys sort by
// (V, W). Every layer that sorts, merges or serializes partials packs
// through this function, and SplitPairKey inverts it.
func PairKey(v, w int32) uint64 { return uint64(v)<<32 | uint64(uint32(w)) }

// SplitPairKey returns the (V, W) pair that PairKey packed into key.
func SplitPairKey(key uint64) (v, w int32) { return int32(key >> 32), int32(uint32(key)) }

// WedgePartials returns g's V1-centered wedge frequency map over V2
// endpoint pairs, sorted by (V, W). Merging the partials of an
// edge-disjoint V1 partition of a graph reconstructs the exact wedge
// multiset of the whole graph, because each wedge's center lives in
// exactly one partition:
//
//	butterflies(g) = Σ_{(v,w)} C(Σ_parts β_vw, 2)
//
// Cost is O(Σ_u C(deg u, 2)) time and O(wedges) transient memory —
// the same wedge work as a sequential count, plus the materialized
// map.
func WedgePartials(g *graph.Bipartite) []WedgePartial {
	return pairCounts(g, func(visit func(u int)) {
		for u := 0; u < g.NumV1(); u++ {
			visit(u)
		}
	})
}

// WedgePartialsOf returns the wedge partial restricted to the given
// V1 centers: only wedges (v—u—w) with u ∈ centers contribute.
// Duplicate and out-of-range centers are ignored. This is the delta
// kernel's workhorse — a mutation batch touches a handful of centers,
// and the partial-map change is exactly the difference of the touched
// centers' contributions before and after, O(Σ_{u∈centers} C(deg u, 2))
// instead of O(wedges).
func WedgePartialsOf(g *graph.Bipartite, centers []int) []WedgePartial {
	seen := make(map[int]struct{}, len(centers))
	for _, u := range centers {
		if u >= 0 && u < g.NumV1() {
			seen[u] = struct{}{}
		}
	}
	return pairCounts(g, func(visit func(u int)) {
		for u := range seen {
			visit(u)
		}
	})
}

// pairCounts is the body of both partial builders: it packs every
// wedge (v—u—w) of each center u that centers visits as PairKey(v, w),
// sorts the keys and run-length counts them. centers is called twice —
// once to size the key buffer, once to fill it — and must visit the
// same set both times.
func pairCounts(g *graph.Bipartite, centers func(visit func(u int))) []WedgePartial {
	var wedges int64
	centers(func(u int) {
		d := int64(g.DegreeV1(u))
		wedges += d * (d - 1) / 2
	})
	keys := make([]uint64, 0, wedges)
	centers(func(u int) {
		row, ks := g.NeighborsOfV1(u), keys
		for i, v := range row {
			for _, w := range row[i+1:] {
				// CSR rows are sorted, so v < w and the key orders
				// pairs lexicographically.
				ks = append(ks, PairKey(v, w))
			}
		}
		keys = ks
	})
	slices.Sort(keys)
	out := make([]WedgePartial, 0, len(keys)/2+1)
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		v, w := SplitPairKey(keys[i])
		out = append(out, WedgePartial{V: v, W: w, Count: int64(j - i)})
		i = j
	}
	return out
}

// SumPartialDeltas merges sorted signed partial deltas by summing
// counts per pair key and dropping entries that cancel to zero. It is
// used both to compose consecutive per-version deltas (shard-side log
// compaction for a `?since=` reply spanning several versions) and to
// compute a diff: SumPartialDeltas(after, negate(before)).
func SumPartialDeltas(parts ...[]WedgePartial) []WedgePartial {
	var out []WedgePartial
	mergePairs(parts, func(key uint64, c int64) {
		if c != 0 {
			v, w := SplitPairKey(key)
			out = append(out, WedgePartial{V: v, W: w, Count: c})
		}
	})
	return out
}

// mergePairs is the k-way merge over sorted partials behind
// SumPartialDeltas and CountFromPartials: it calls emit once per
// distinct pair key, in ascending key order, with the key's count
// summed over every partial that holds it.
func mergePairs(parts [][]WedgePartial, emit func(key uint64, c int64)) {
	idx := make([]int, len(parts))
	for {
		// Find the minimum live key across all partials.
		minKey := uint64(1)<<63 | uint64(1)<<62 // sentinel above any packed pair
		live := false
		for p, part := range parts {
			if idx[p] < len(part) {
				if k := PairKey(part[idx[p]].V, part[idx[p]].W); !live || k < minKey {
					minKey, live = k, true
				}
			}
		}
		if !live {
			return
		}
		var c int64
		for p, part := range parts {
			if idx[p] < len(part) && PairKey(part[idx[p]].V, part[idx[p]].W) == minKey {
				c += part[idx[p]].Count
				idx[p]++
			}
		}
		emit(minKey, c)
	}
}

// DiffPartials returns the signed delta after − before over pair keys:
// applying the result to `before` with ApplyPartialDelta reconstructs
// `after` exactly. Both inputs must be sorted by (V, W); entries with
// equal counts cancel out of the result.
func DiffPartials(after, before []WedgePartial) []WedgePartial {
	neg := make([]WedgePartial, len(before))
	for i, p := range before {
		neg[i] = WedgePartial{V: p.V, W: p.W, Count: -p.Count}
	}
	return SumPartialDeltas(after, neg)
}

// ApplyPartialDelta merges a signed delta into a (non-negative) base
// partial, dropping pairs whose count reaches zero. A pair driven
// negative means the delta does not belong to this base version — the
// caller's pinned copy is stale or corrupt — and is reported as an
// error rather than silently clamped.
func ApplyPartialDelta(base, delta []WedgePartial) ([]WedgePartial, error) {
	merged := SumPartialDeltas(base, delta)
	for _, p := range merged {
		if p.Count < 0 {
			return nil, &NegativePartialError{V: p.V, W: p.W, C: p.Count}
		}
	}
	return merged, nil
}

// NegativePartialError reports a delta application that drove a wedge
// count below zero — the signal that the base partial and the delta
// frame disagree about the starting version.
type NegativePartialError struct {
	V, W int32
	C    int64
}

func (e *NegativePartialError) Error() string {
	return "core: partial delta drove pair below zero"
}

// CountFromPartials merges sorted wedge partials (a k-way merge over
// the pair keys) and applies Σ C(β, 2) — the distributed reduction
// that turns per-partition exports into the exact global butterfly
// count. Passing a single partial computes the count of that graph
// alone.
func CountFromPartials(parts ...[]WedgePartial) int64 {
	var total int64
	mergePairs(parts, func(_ uint64, beta int64) {
		total += beta * (beta - 1) / 2
	})
	return total
}
