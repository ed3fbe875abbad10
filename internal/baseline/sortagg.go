package baseline

import (
	"sort"
	"sync"

	"butterfly/internal/graph"
)

// CountSortAggregate counts butterflies with the sort-based wedge
// aggregation of ParButterfly (Shi & Shun [12]): materialize every
// wedge as its endpoint pair, sort the pair list, and sum C(run, 2)
// over equal runs. Compared with hashing (CountWedgeHash) the working
// set is a flat array and the aggregation is a single sorted scan —
// the structure that parallelizes well; compared with the paper's
// loop invariants it pays O(W) memory for the wedge list.
//
// threads > 1 sorts and scans chunks concurrently (a merge-free
// partition by leading endpoint).
func CountSortAggregate(g *graph.Bipartite, threads int) int64 {
	m := g.NumV1()
	// Wedges with endpoints in V1: one entry per (u1 < u2) pair per
	// shared neighbor.
	var wedges []int64
	for v := 0; v < g.NumV2(); v++ {
		nbrs := g.NeighborsOfV2(v)
		for x := 0; x < len(nbrs); x++ {
			for y := x + 1; y < len(nbrs); y++ {
				wedges = append(wedges, int64(nbrs[x])*int64(m)+int64(nbrs[y]))
			}
		}
	}
	if len(wedges) == 0 {
		return 0
	}
	if threads <= 1 {
		sort.Slice(wedges, func(a, b int) bool { return wedges[a] < wedges[b] })
		return sumRuns(wedges)
	}

	// Parallel path: bucket wedges by leading endpoint range so each
	// bucket's runs are self-contained, then sort/scan buckets
	// concurrently.
	buckets := make([][]int64, threads)
	span := (int64(m)*int64(m) + int64(threads) - 1) / int64(threads)
	for _, w := range wedges {
		b := int(w / span)
		if b >= threads {
			b = threads - 1
		}
		buckets[b] = append(buckets[b], w)
	}
	var (
		wg    sync.WaitGroup
		total int64
		mu    sync.Mutex
	)
	for _, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		wg.Add(1)
		go func(b []int64) {
			defer wg.Done()
			sort.Slice(b, func(x, y int) bool { return b[x] < b[y] })
			t := sumRuns(b)
			mu.Lock()
			total += t
			mu.Unlock()
		}(bucket)
	}
	wg.Wait()
	return total
}

// sumRuns sums C(runLength, 2) over equal runs of a sorted slice.
func sumRuns(sorted []int64) int64 {
	var total int64
	run := int64(1)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			run++
			continue
		}
		total += run * (run - 1) / 2
		run = 1
	}
	total += run * (run - 1) / 2
	return total
}
