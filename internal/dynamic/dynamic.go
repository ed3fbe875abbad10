// Package dynamic maintains an exact butterfly count under edge
// insertions and deletions.
//
// The static family recounts from scratch; here the update rule falls
// out of the same per-edge support quantity the paper's equation (24)
// derives. An absent edge (u, v) closes
//
//	Σ_{w ∈ N(v)} |N(u) ∩ N(w)|
//
// butterflies: each other endpoint w of v and each V2 vertex x it
// shares with u complete the 2×2 biclique {u, w} × {v, x}. Inserting
// the edge creates that many, counted before it is added; deleting it
// destroys that many, counted after it is removed. Each update costs
// O(Σ_{w∈N(v)} min(deg u, deg w)) over sorted neighbor rows — far
// below a recount for local changes. This is the building block for
// streaming butterfly analytics over evolving bipartite graphs, and
// the fixed-budget stream reservoir (internal/estimate) keeps its
// sample in a Counter.
package dynamic

import (
	"fmt"
	"slices"

	"butterfly/internal/core"
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

// Counter is a mutable bipartite graph with an incrementally
// maintained butterfly count. Each side keeps only its non-empty
// neighbor rows, sorted, so memory follows the edges held rather than
// the declared vertex sets. Not safe for concurrent mutation.
type Counter struct {
	m, n  int
	adj   map[int32][]int32 // u ∈ V1 → sorted neighbors in V2
	adjT  map[int32][]int32 // v ∈ V2 → sorted neighbors in V1
	edges int64
	count int64

	// base is the graph the last Snapshot published (the seed graph,
	// or nil before New's first Snapshot); edits holds the edges whose
	// presence differs from base. While a base exists every successful
	// insert or delete toggles its edge, so an insert undone by a
	// delete leaves no edit behind.
	base  *graph.Bipartite
	edits map[graph.Edge]struct{}
}

// New returns an empty counter over vertex sets of size m and n. It
// allocates nothing per vertex.
func New(m, n int) *Counter {
	if m < 0 || n < 0 {
		panic(fmt.Sprintf("dynamic: negative vertex-set size %d/%d", m, n))
	}
	return &Counter{m: m, n: n, adj: make(map[int32][]int32), adjT: make(map[int32][]int32)}
}

// FromGraph seeds a counter with an existing graph: the neighbor rows
// slice one copy of each CSR orientation's column array, and the
// initial count comes from one static count of g by the family kernel
// (core.CountAuto) rather than |E| incremental inserts. g becomes the
// base the first Snapshot patches, and is what Snapshot returns until
// the first mutation.
func FromGraph(g *graph.Bipartite) *Counter {
	return &Counter{
		m: g.NumV1(), n: g.NumV2(),
		adj:   loadRows(g.Adj()),
		adjT:  loadRows(g.AdjT()),
		edges: g.NumEdges(),
		count: core.CountAuto(g),
		base:  g,
		edits: make(map[graph.Edge]struct{}),
	}
}

// loadRows returns the non-empty rows of a over one copy of its column
// array. Each row's capacity is its length, so growing a row
// reallocates it instead of writing into the next one.
func loadRows(a *sparse.CSR) map[int32][]int32 {
	col := slices.Clone(a.Col)
	rows := make(map[int32][]int32)
	for i := 0; i < a.R; i++ {
		if lo, hi := a.Ptr[i], a.Ptr[i+1]; hi > lo {
			rows[int32(i)] = col[lo:hi:hi]
		}
	}
	return rows
}

// NumV1 returns |V1|.
func (c *Counter) NumV1() int { return c.m }

// NumV2 returns |V2|.
func (c *Counter) NumV2() int { return c.n }

// NumEdges returns the current |E|.
func (c *Counter) NumEdges() int64 { return c.edges }

// Count returns the current number of butterflies.
func (c *Counter) Count() int64 { return c.count }

// Rows returns the non-empty sorted neighbor rows of each side, keyed
// by vertex: V1 → V2 neighbors and V2 → V1 neighbors. They are the
// counter's own storage, valid until the next mutation; read only.
func (c *Counter) Rows() (adj, adjT map[int32][]int32) { return c.adj, c.adjT }

// HasEdge reports whether (u, v) is present.
func (c *Counter) HasEdge(u, v int) bool {
	if u < 0 || u >= c.m || v < 0 || v >= c.n {
		return false
	}
	_, ok := slices.BinarySearch(c.adj[int32(u)], int32(v))
	return ok
}

func (c *Counter) check(u, v int) {
	if u < 0 || u >= c.m || v < 0 || v >= c.n {
		panic(fmt.Sprintf("dynamic: edge (%d,%d) out of range %dx%d", u, v, c.m, c.n))
	}
}

// InsertEdge adds (u, v) and returns whether it was new plus the
// number of butterflies it created.
func (c *Counter) InsertEdge(u, v int) (added bool, delta int64) {
	c.check(u, v)
	nu, nv := c.adj[int32(u)], c.adjT[int32(v)]
	i, dup := slices.BinarySearch(nu, int32(v))
	if dup {
		return false, 0
	}
	delta = c.closes(nu, nv)
	j, _ := slices.BinarySearch(nv, int32(u))
	c.adj[int32(u)] = slices.Insert(nu, i, int32(v))
	c.adjT[int32(v)] = slices.Insert(nv, j, int32(u))
	c.edges++
	c.count += delta
	c.toggle(u, v)
	return true, delta
}

// DeleteEdge removes (u, v) and returns whether it existed plus the
// (non-negative) number of butterflies it destroyed.
func (c *Counter) DeleteEdge(u, v int) (removed bool, delta int64) {
	c.check(u, v)
	nu := c.adj[int32(u)]
	i, ok := slices.BinarySearch(nu, int32(v))
	if !ok {
		return false, 0
	}
	nv := c.adjT[int32(v)]
	j, _ := slices.BinarySearch(nv, int32(u))
	nu, nv = slices.Delete(nu, i, i+1), slices.Delete(nv, j, j+1)
	setRow(c.adj, int32(u), nu)
	setRow(c.adjT, int32(v), nv)
	delta = c.closes(nu, nv)
	c.edges--
	c.count -= delta
	c.toggle(u, v)
	return true, delta
}

// setRow stores row k, dropping it once it is empty.
func setRow(rows map[int32][]int32, k int32, row []int32) {
	if len(row) == 0 {
		delete(rows, k)
	} else {
		rows[k] = row
	}
}

// closes returns the number of butterflies the absent edge (u, v)
// would close, given nu = N(u) and nv = N(v):
// Σ_{w∈N(v)} |N(u) ∩ N(w)|. Insert and delete both call it with the
// edge absent, so their deltas are exact mirrors.
func (c *Counter) closes(nu, nv []int32) int64 {
	if len(nu) == 0 {
		return 0
	}
	var s int64
	for _, w := range nv {
		s += intersect(nu, c.adj[w])
	}
	return s
}

// intersect returns |a ∩ b| for sorted rows: a merge, or, when one row
// is at least 16× longer, a binary search of it for each element of
// the shorter.
func intersect(a, b []int32) int64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	var n int64
	if len(a)*16 <= len(b) {
		for _, x := range a {
			i, ok := slices.BinarySearch(b, x)
			if ok {
				n++
			}
			b = b[i:]
		}
		return n
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// toggle flips (u, v)'s membership in the edit set while a base
// exists.
func (c *Counter) toggle(u, v int) {
	if c.base == nil {
		return
	}
	e := graph.Edge{U: int32(u), V: int32(v)}
	if _, ok := c.edits[e]; ok {
		delete(c.edits, e)
	} else {
		c.edits[e] = struct{}{}
	}
}

// Snapshot materializes the current graph as an immutable Bipartite by
// patching the previous snapshot (graph.Bipartite.Patch) with the net
// edits since: O(|V| + |E|) block copies plus O(k log k) for k edited
// edges, with no map walk and no transpose. Without edits it returns
// the previous snapshot itself, so its cached degree profile and
// relayout twin carry over. A counter made by New builds its first
// snapshot from its rows. Earlier snapshots are never written to.
func (c *Counter) Snapshot() *graph.Bipartite {
	if c.base == nil {
		edges := make([]graph.Edge, 0, c.edges)
		for u, row := range c.adj {
			for _, v := range row {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
		c.base = graph.FromEdges(c.m, c.n, edges)
		c.edits = make(map[graph.Edge]struct{})
		return c.base
	}
	if len(c.edits) == 0 {
		return c.base
	}
	var ins, del []graph.Edge
	for e := range c.edits {
		if c.HasEdge(int(e.U), int(e.V)) {
			ins = append(ins, e)
		} else {
			del = append(del, e)
		}
	}
	c.base = c.base.Patch(ins, del)
	c.edits = make(map[graph.Edge]struct{})
	return c.base
}
