package core

// BloomIndex: the priority bloom index behind the wing-peeling engines
// (the BE-Index of Wang, Lin, Qin, Zhang & Zhang, "Efficient Bitruss
// Decomposition for Large-scale Bipartite Graphs", ICDE 2020).
//
// The index is built on the priority-wedge pass of priority.go, the
// pass behind CountVertexPriority (Wang et al., arXiv:1812.00283):
// every vertex is ranked by degree, and a wedge s–x–w obeys the
// priority when its middle x and its end w both rank below its start
// s. A bloom is the set of priority-obeying wedges that share a start
// s and an end w; k is its size. A butterfly's highest-priority vertex
// s and the vertex w opposite it fix one bloom, and the butterfly is a
// pair of that bloom's wedges, so every butterfly lies in exactly one
// bloom:
//
//	ΞG = Σ_B C(k_B, 2),
//
// the paper's aggregation identity Σ C(β, 2) restricted to
// priority-obeying wedges. An edge lies in at most one wedge of a bloom
// (its endpoints fix the middle), and that wedge pairs with each of the
// other k − 1, so the support of edge e is
//
//	sup(e) = Σ_{B∋e} (k_B − 1).
//
// Peeling a batch of edges updates each damaged bloom in closed form.
// Let d of a bloom's k live wedges hold a batch edge. A surviving edge
// in an undamaged wedge loses the d butterflies its wedge formed with
// the damaged ones; a surviving edge whose wedge-twin died loses all
// k − 1; then k ← k − d. Each destroyed butterfly is charged once, by
// the one bloom holding it, so the decrements are exact for batches of
// any size and need no assignment rule between batch edges.
//
// Layout: bloom b's wedges are the pairs wedge[2i], wedge[2i+1] (int32
// flat edge ids of g.Adj()) for i from blooms[b].off on; the first
// blooms[b].k of them are live, and the segment ends where bloom b+1's
// begins. Edge e's blooms are link[loff[e] : loff[e+1]]. Only blooms
// with k ≥ 2 are stored: a lone wedge holds no butterfly. A wedge costs
// 8 B, a link 4 B (two per wedge), a bloom 16 B and an edge 8 B of link
// offset. A bloom's offset, count and round stamp share one 16-byte
// record, so a round's visit to a bloom misses the cache once before
// it reaches the wedges.

import (
	"math"

	"butterfly/internal/graph"
)

// BloomIndex is the bloom index of a graph together with the live
// state of a peeling run over it: each bloom's live wedges and count.
type BloomIndex struct {
	blooms []bloom
	wedge  []int32 // wedge i's two edges at 2i and 2i+1
	loff   []int64 // edge e's links are link[loff[e] : loff[e+1]]
	link   []int32 // bloom ids
	round  int32   // rounds applied so far
}

// bloom is one bloom's record: its segment offset in wedges, its live
// wedge count, and the last round that visited it.
type bloom struct {
	off   int64
	k     int32
	stamp int32
}

// NewBloomIndex builds the bloom index of g, every edge live. One
// priority-wedge pass over the start vertices sizes the index exactly
// and a second fills it; with threads > 1 both passes run over
// work-weighted chunks of start vertices, each start writing at its
// prefix offsets, so the layout does not depend on the thread count.
// Scratch comes from the arena (nil allowed). Vertex, edge and bloom
// ids are int32: a graph with 2^31 vertices or edges or more panics.
func NewBloomIndex(g *graph.Bipartite, threads int, a *Arena) *BloomIndex {
	nnz := g.NumEdges()
	b := newPriorityRows(g, true)
	n := len(b.ptr) - 1

	// Size: blooms and wedges per start, then prefix offsets.
	bcnt := make([]int64, n+1)
	wcnt := make([]int64, n+1)
	b.run(threads, a, func(s int32, ws *workspace) {
		bcnt[s], wcnt[s] = b.size(s, ws)
	})
	prefix(bcnt)
	prefix(wcnt)
	nb, nw := bcnt[n], wcnt[n]
	if nb > math.MaxInt32 {
		panic("core: bloom index needs fewer than 2^31 blooms")
	}
	x := &BloomIndex{
		blooms: make([]bloom, nb),
		wedge:  make([]int32, 2*nw),
	}

	// Fill: each start writes its blooms and wedges at its offsets.
	b.run(threads, a, func(s int32, ws *workspace) {
		b.fill(s, ws, x, bcnt[s], wcnt[s])
	})

	// Links: a counting sort of the wedges' edges by edge id, in bloom
	// order within each edge.
	x.loff = make([]int64, nnz+1)
	for _, e := range x.wedge {
		x.loff[e]++
	}
	prefix(x.loff)
	x.link = make([]int32, 2*nw)
	for bl := range x.blooms {
		for _, e := range x.segment(bl) {
			x.link[x.loff[e]] = int32(bl)
			x.loff[e]++
		}
	}
	for e := nnz; e > 0; e-- {
		x.loff[e] = x.loff[e-1]
	}
	x.loff[0] = 0
	return x
}

// size returns how many blooms (k ≥ 2) start s holds and how many
// wedges they hold, restoring the workspace at rest.
func (b *priorityRows) size(s int32, ws *workspace) (blooms, wedges int64) {
	acc := ws.acc
	for _, w := range b.count(s, ws) {
		if c := int64(acc[w]); c >= 2 {
			blooms++
			wedges += c
		}
		acc[w] = 0
	}
	ws.touched = ws.touched[:0]
	return blooms, wedges
}

// fill writes start s's blooms from bloom id bl and wedge index base
// on, in the order their ends were first reached, restoring the
// workspace at rest.
func (b *priorityRows) fill(s int32, ws *workspace, x *BloomIndex, bl, base int64) {
	acc := ws.acc
	touched := b.count(s, ws)
	// acc[w] becomes 1 + the next free slot of w's bloom relative to
	// base, or 0 for a lone wedge.
	var rel int32
	for _, w := range touched {
		c := acc[w]
		if c < 2 {
			acc[w] = 0
			continue
		}
		x.blooms[bl] = bloom{off: base + int64(rel), k: c}
		bl++
		acc[w] = rel + 1
		rel += c
	}
	ptr, nbr, eid := b.ptr, b.nbr, b.eid
	for j := ptr[s+1] - 1; j >= ptr[s] && nbr[j] > s; j-- {
		mid := nbr[j]
		for i := ptr[mid+1] - 1; i >= ptr[mid] && nbr[i] > s; i-- {
			if c := acc[nbr[i]]; c > 0 {
				p := 2 * (base + int64(c) - 1)
				x.wedge[p], x.wedge[p+1] = eid[j], eid[i]
				acc[nbr[i]] = c + 1
			}
		}
	}
	for _, w := range touched {
		acc[w] = 0
	}
	ws.touched = ws.touched[:0]
}

// segment returns the edge ids of all of bloom bl's wedges, live or
// not, two per wedge.
func (x *BloomIndex) segment(bl int) []int32 {
	end := int64(len(x.wedge))
	if bl+1 < len(x.blooms) {
		end = 2 * x.blooms[bl+1].off
	}
	return x.wedge[2*x.blooms[bl].off : end]
}

// Blooms reports the number of stored blooms (k ≥ 2 at build).
func (x *BloomIndex) Blooms() int { return len(x.blooms) }

// Wedges reports the number of wedges in stored blooms.
func (x *BloomIndex) Wedges() int64 { return int64(len(x.wedge) / 2) }

// Bytes reports the memory the index holds.
func (x *BloomIndex) Bytes() int64 {
	return 16*int64(len(x.blooms)) + 8*int64(len(x.loff)) + 4*int64(len(x.wedge)+len(x.link))
}

// Butterflies returns Σ_B C(k_B, 2) over the live blooms: the
// butterflies of the graph of surviving edges.
func (x *BloomIndex) Butterflies() int64 {
	var sum int64
	for _, b := range x.blooms {
		sum += int64(b.k) * int64(b.k-1) / 2
	}
	return sum
}

// SupportsInto writes every edge's support, Σ_{B∋e} (k_B − 1) over the
// live blooms, into sup (len ≥ NNZ).
func (x *BloomIndex) SupportsInto(sup []int64) {
	for e := range x.loff[:len(x.loff)-1] {
		var s int64
		for _, bl := range x.link[x.loff[e]:x.loff[e+1]] {
			s += int64(x.blooms[bl].k) - 1
		}
		sup[e] = s
	}
}

// PeelRound removes a batch of edges from the index and subtracts from
// sup (indexed by flat edge id) the butterflies each surviving edge
// lost, bloom by bloom in closed form. alive must already be false for
// every batch edge and every edge peeled in earlier rounds, and every
// such earlier edge must have gone through PeelRound. Every surviving
// edge whose support decreased is appended once to *touched, using
// dirty (an all-zero int32 array of NNZ entries) for deduplication; the
// caller clears the marks of the returned ids before the next round. A
// round allocates nothing beyond the growth of *touched.
func (x *BloomIndex) PeelRound(batch []int64, alive []bool, sup []int64, dirty []int32, touched *[]int64) {
	x.round++
	for _, e := range batch {
		for _, bl := range x.link[x.loff[e]:x.loff[e+1]] {
			if b := &x.blooms[bl]; b.k >= 2 && b.stamp != x.round {
				b.stamp = x.round
				x.peelBloom(b, alive, sup, dirty, touched)
			}
		}
	}
}

// peelBloom applies one damaged bloom's closed form, once per round:
// every batch edge is already dead, so the first visit sees them all.
// It moves the wedges holding a dead edge behind the live ones, charges
// the surviving edges and shrinks k.
func (x *BloomIndex) peelBloom(b *bloom, alive []bool, sup []int64, dirty []int32, touched *[]int64) {
	k := int(b.k)
	w := x.wedge[2*b.off : 2*(b.off+int64(k))]
	live := k
	for i := 0; i < live; {
		if alive[w[2*i]] && alive[w[2*i+1]] {
			i++
			continue
		}
		live--
		w[2*i], w[2*live] = w[2*live], w[2*i]
		w[2*i+1], w[2*live+1] = w[2*live+1], w[2*i+1]
	}
	d := int64(k - live)
	if d == 0 {
		return // the batch edge's wedge had died through its twin
	}
	dec := func(f int32, by int64) {
		sup[f] -= by
		if dirty[f] == 0 {
			dirty[f] = 1
			*touched = append(*touched, int64(f))
		}
	}
	for _, f := range w[:2*live] {
		dec(f, d)
	}
	for _, f := range w[2*live:] {
		if alive[f] {
			dec(f, int64(k-1))
		}
	}
	b.k = int32(live)
}
