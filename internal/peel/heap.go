// Package peel implements the paper's Section IV: k-tip and k-wing
// subgraph extraction via the iterative mask formulation (equations
// (19)–(22) and (25)–(27)), the look-ahead fused variant of Fig 8, and
// full tip/wing decompositions (the peeling orders of Sariyüce & Pinar
// [11]). Every answer has one production path and one oracle: the
// incremental delta engine and the round-synchronous recount engine
// (engine.go). Each engine is two loops — deltaLevels and deltaBelow
// (delta.go), recountLevels and recountBelow (recount.go) — that tips
// and wings share, run over the per-kind value of kind.go. The
// lazy-deletion min-heap in this file orders the one-vertex-at-a-time
// greedy peel of DensestByButterflies.
package peel

import "container/heap"

// lazyMin is a min-heap of (key, id) pairs with lazy invalidation: when
// an id's key decreases, the new pair is pushed and stale pairs are
// skipped at pop time by comparing against the caller's current key
// array — simpler than a decrease-key heap and with the same
// asymptotics for a greedy peel.
type lazyMin struct {
	keys []int64 // entry i = key, entry i+1 = id (flattened pairs)
}

func (h *lazyMin) Len() int { return len(h.keys) / 2 }

func (h *lazyMin) Less(a, b int) bool {
	if h.keys[2*a] != h.keys[2*b] {
		return h.keys[2*a] < h.keys[2*b]
	}
	return h.keys[2*a+1] < h.keys[2*b+1]
}

func (h *lazyMin) Swap(a, b int) {
	h.keys[2*a], h.keys[2*b] = h.keys[2*b], h.keys[2*a]
	h.keys[2*a+1], h.keys[2*b+1] = h.keys[2*b+1], h.keys[2*a+1]
}

func (h *lazyMin) Push(x any) {
	p := x.([2]int64)
	h.keys = append(h.keys, p[0], p[1])
}

func (h *lazyMin) Pop() any {
	n := len(h.keys)
	p := [2]int64{h.keys[n-2], h.keys[n-1]}
	h.keys = h.keys[:n-2]
	return p
}

// newLazyMin builds a heap over ids 0..n-1 with the given initial keys.
func newLazyMin(initial []int64) *lazyMin {
	h := &lazyMin{keys: make([]int64, 0, 2*len(initial))}
	for id, k := range initial {
		h.keys = append(h.keys, k, int64(id))
	}
	heap.Init(h)
	return h
}

// push records a (possibly updated) key for id.
func (h *lazyMin) push(key int64, id int64) {
	heap.Push(h, [2]int64{key, id})
}

// popCurrent pops entries until one matches cur[id] (i.e. is not
// stale) and returns it; ok is false when the heap is exhausted.
// removed[id] entries are skipped too.
func (h *lazyMin) popCurrent(cur []int64, removed []bool) (key, id int64, ok bool) {
	for h.Len() > 0 {
		p := heap.Pop(h).([2]int64)
		key, id = p[0], p[1]
		if removed[id] || key != cur[id] {
			continue
		}
		return key, id, true
	}
	return 0, 0, false
}
