package core

import (
	"sync/atomic"

	"butterfly/internal/graph"
)

// countBlocked is the blocked refinement of the family: each iteration
// exposes a block of `block` consecutive vertices instead of one
// (a1 → A1 in the FLAME worksheet). Cross-partition butterflies are
// accumulated per exposed vertex against the block-external partner
// region, then block-internal pairs are handled within the block, which
// keeps the accumulator's working set block-local for the second pass.
// The count is identical to the unblocked algorithm for every
// invariant. A non-nil stop flag is polled once per block (blocks are
// small, so abort latency stays bounded).
func countBlocked(g *graph.Bipartite, inv Invariant, block int, stop *atomic.Bool) int64 {
	desc, above := inv.geometry()
	exposed, secondary := orient(g, inv)

	nExp := exposed.R
	acc := make([]int32, nExp)
	touched := make([]int32, 0, 1024)
	var total int64

	for b0 := 0; b0 < nExp; b0 += block {
		if stopped(stop) {
			return total
		}
		b1 := b0 + block
		if b1 > nExp {
			b1 = nExp
		}
		lo, hi := int32(b0), int32(b1) // exposed block is [lo, hi)
		if desc {
			lo, hi = int32(nExp-b1), int32(nExp-b0)
		}

		// Pass 1: cross-partition pairs — partners strictly outside the
		// block on the restriction side: below lo, or above hi−1.
		bound := lo
		if above {
			bound = hi - 1
		}
		for k := lo; k < hi; k++ {
			for _, y := range exposed.Row(int(k)) {
				touched = accumulate(acc, touched, secondary.Row(int(y)), bound, above)
			}
			total += flush(acc, &touched)
		}

		// Pass 2: block-internal pairs — both endpoints inside [lo, hi).
		for k := lo; k < hi; k++ {
			for _, y := range exposed.Row(int(k)) {
				prow := secondary.Row(int(y))
				touched = accumulate(acc, touched, prow[searchInt32(prow, lo):], k, false)
			}
			total += flush(acc, &touched)
		}
	}
	return total
}
