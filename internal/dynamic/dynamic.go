// Package dynamic maintains an exact butterfly count under edge
// insertions and deletions.
//
// The static family recounts from scratch; here the update rule falls
// out of the same per-edge support quantity the paper's equation (24)
// derives: inserting edge (u, v) creates exactly
//
//	Σ_{w ∈ N(v)\{u}} (|N(u) ∩ N(w)| − 1)
//
// new butterflies (its support in the post-insertion graph), and
// deleting an edge destroys its pre-deletion support. Each update
// costs O(Σ_{w∈N(v)} min(deg u, deg w)) set intersections — far below
// a recount for local changes. This is the building block for
// streaming butterfly analytics over evolving bipartite graphs.
package dynamic

import (
	"fmt"

	"butterfly/internal/core"
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

// Counter is a mutable bipartite graph with an incrementally
// maintained butterfly count. Not safe for concurrent mutation.
type Counter struct {
	adj   []map[int32]struct{} // u ∈ V1 → neighbor set in V2
	adjT  []map[int32]struct{} // v ∈ V2 → neighbor set in V1
	edges int64
	count int64

	// base is the graph the last Snapshot published (the seed graph,
	// or an empty one for New); edits holds the edges whose presence
	// differs from base. Every successful insert or delete toggles its
	// edge, so an insert undone by a delete leaves no edit behind.
	base  *graph.Bipartite
	edits map[graph.Edge]struct{}
}

// New returns an empty counter over vertex sets of size m and n.
func New(m, n int) *Counter {
	if m < 0 || n < 0 {
		panic(fmt.Sprintf("dynamic: negative vertex-set size %d/%d", m, n))
	}
	c := &Counter{
		adj:   make([]map[int32]struct{}, m),
		adjT:  make([]map[int32]struct{}, n),
		base:  graph.NewBuilder(m, n).Build(),
		edits: make(map[graph.Edge]struct{}),
	}
	for i := range c.adj {
		c.adj[i] = make(map[int32]struct{})
	}
	for i := range c.adjT {
		c.adjT[i] = make(map[int32]struct{})
	}
	return c
}

// FromGraph seeds a counter with an existing graph: each neighbor set
// is loaded straight from the CSR rows, sized to its vertex's degree,
// and the initial count comes from one static count of g by the
// family kernel (core.CountAuto) rather than |E| incremental inserts.
// g becomes the base the first Snapshot patches, and is what Snapshot
// returns until the first mutation.
func FromGraph(g *graph.Bipartite) *Counter {
	return &Counter{
		adj:   loadSets(g.Adj()),
		adjT:  loadSets(g.AdjT()),
		edges: g.NumEdges(),
		count: core.CountAuto(g),
		base:  g,
		edits: make(map[graph.Edge]struct{}),
	}
}

// loadSets returns one neighbor set per row of a.
func loadSets(a *sparse.CSR) []map[int32]struct{} {
	sets := make([]map[int32]struct{}, a.R)
	for i := range sets {
		row := a.Row(i)
		s := make(map[int32]struct{}, len(row))
		for _, v := range row {
			s[v] = struct{}{}
		}
		sets[i] = s
	}
	return sets
}

// NumV1 returns |V1|.
func (c *Counter) NumV1() int { return len(c.adj) }

// NumV2 returns |V2|.
func (c *Counter) NumV2() int { return len(c.adjT) }

// NumEdges returns the current |E|.
func (c *Counter) NumEdges() int64 { return c.edges }

// Count returns the current number of butterflies.
func (c *Counter) Count() int64 { return c.count }

// HasEdge reports whether (u, v) is present.
func (c *Counter) HasEdge(u, v int) bool {
	if u < 0 || u >= len(c.adj) || v < 0 || v >= len(c.adjT) {
		return false
	}
	_, ok := c.adj[u][int32(v)]
	return ok
}

func (c *Counter) check(u, v int) {
	if u < 0 || u >= len(c.adj) || v < 0 || v >= len(c.adjT) {
		panic(fmt.Sprintf("dynamic: edge (%d,%d) out of range %dx%d", u, v, len(c.adj), len(c.adjT)))
	}
}

// InsertEdge adds (u, v) and returns whether it was new plus the
// number of butterflies it created.
func (c *Counter) InsertEdge(u, v int) (added bool, delta int64) {
	c.check(u, v)
	if _, dup := c.adj[u][int32(v)]; dup {
		return false, 0
	}
	c.adj[u][int32(v)] = struct{}{}
	c.adjT[v][int32(u)] = struct{}{}
	c.edges++
	c.toggle(u, v)
	delta = c.support(u, v)
	c.count += delta
	return true, delta
}

// DeleteEdge removes (u, v) and returns whether it existed plus the
// (non-negative) number of butterflies it destroyed.
func (c *Counter) DeleteEdge(u, v int) (removed bool, delta int64) {
	c.check(u, v)
	if _, ok := c.adj[u][int32(v)]; !ok {
		return false, 0
	}
	delta = c.support(u, v)
	delete(c.adj[u], int32(v))
	delete(c.adjT[v], int32(u))
	c.edges--
	c.toggle(u, v)
	c.count -= delta
	return true, delta
}

// support computes the number of butterflies containing the present
// edge (u, v): Σ_{w∈N(v)\{u}} (|N(u) ∩ N(w)| − 1), where the −1
// removes the shared neighbor v itself.
func (c *Counter) support(u, v int) int64 {
	var s int64
	nu := c.adj[u]
	for w := range c.adjT[v] {
		if int(w) == u {
			continue
		}
		s += intersectSize(nu, c.adj[w]) - 1
	}
	return s
}

// intersectSize returns |a ∩ b|, iterating the smaller set.
func intersectSize(a, b map[int32]struct{}) int64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	var n int64
	for k := range a {
		if _, ok := b[k]; ok {
			n++
		}
	}
	return n
}

// toggle flips (u, v)'s membership in the edit set.
func (c *Counter) toggle(u, v int) {
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
// relayout twin carry over. Earlier snapshots are never written to.
func (c *Counter) Snapshot() *graph.Bipartite {
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
