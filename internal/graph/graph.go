// Package graph defines the simple, undirected bipartite graph type
// shared by all butterfly algorithms, together with builders, induced
// subgraphs, relabelings and summary statistics.
//
// A bipartite graph G = (V1, V2, E) is stored as its biadjacency
// pattern A in CSR form (rows = V1, columns = V2) plus the transpose
// Aᵀ. Keeping both orientations resident is what lets the paper's two
// algorithm families pick their preferred storage: invariants 1–4 walk
// columns of A (the rows of Aᵀ), invariants 5–8 walk rows.
package graph

import (
	"errors"
	"fmt"
	"slices"

	"butterfly/internal/bitvec"
	"butterfly/internal/sparse"
)

// Bipartite is an immutable simple bipartite graph. Construct one with
// Builder, FromCSR or FromEdges; do not mutate the adjacency matrices
// after construction.
type Bipartite struct {
	adj  *sparse.CSR // A: V1 → V2, pattern matrix
	adjT *sparse.CSR // Aᵀ: V2 → V1, pattern matrix

	// Lazily-computed caches (see profile.go): the degree profile the
	// adaptive execution policies read, and the degree-ordered twin the
	// counting kernels stream. Both derive deterministically from the
	// immutable adjacency, so they never invalidate.
	prof   profCache
	degOrd degOrdCache
}

// Edge is an undirected edge between vertex U ∈ V1 and V ∈ V2.
type Edge struct {
	U, V int32
}

// Builder accumulates edges for a Bipartite graph. Duplicate edges are
// merged silently (simple graph).
type Builder struct {
	coo *sparse.COO
}

// NewBuilder returns a builder for a graph with |V1| = m, |V2| = n.
func NewBuilder(m, n int) *Builder {
	return &Builder{coo: sparse.NewCOO(m, n)}
}

// AddEdge records the edge (u ∈ V1, v ∈ V2). Panics if out of range.
func (b *Builder) AddEdge(u, v int) { b.coo.Add(u, v) }

// Build finalizes the graph.
func (b *Builder) Build() *Bipartite {
	a := b.coo.ToCSR(sparse.DupBinary)
	return &Bipartite{adj: a, adjT: sparse.Transpose(a)}
}

// FromCSR wraps an existing biadjacency pattern. The matrix must be a
// valid pattern CSR; an error is returned otherwise. The matrix is used
// directly (not copied).
func FromCSR(a *sparse.CSR) (*Bipartite, error) {
	if a == nil {
		return nil, errors.New("graph: nil adjacency")
	}
	if !a.IsPattern() {
		return nil, errors.New("graph: adjacency must be a pattern (0/1) matrix")
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("graph: invalid adjacency: %w", err)
	}
	return &Bipartite{adj: a, adjT: sparse.Transpose(a)}, nil
}

// FromRows builds a graph from a biadjacency pattern whose rows hold
// no duplicate columns but may be in any order. Two counting-sort
// transposes sort them in O(|V1| + |V2| + |E|): the first yields Aᵀ
// with sorted rows, the second A. The matrix is not retained.
func FromRows(a *sparse.CSR) *Bipartite {
	adjT := sparse.Transpose(a)
	return &Bipartite{adj: sparse.Transpose(adjT), adjT: adjT}
}

// Patch returns g with the edges of ins added and those of del
// removed. Every edge of ins must be absent from g, every edge of del
// present, and no edge may appear twice across the two lists; Patch
// panics otherwise. Each orientation is patched on its own, so no
// transpose runs: runs of untouched rows are block-copied from g and
// each touched row is merged with its sorted edits, in
// O(|V1| + |V2| + |E|) copying plus O(k log k) for k edits. The result
// shares no storage with g, which stays valid; with no edits Patch
// returns g itself, caches included.
func (g *Bipartite) Patch(ins, del []Edge) *Bipartite {
	if len(ins) == 0 && len(del) == 0 {
		return g
	}
	return &Bipartite{adj: patchRows(g.adj, ins, del, false), adjT: patchRows(g.adjT, ins, del, true)}
}

// patchRows applies the edits to one orientation of the biadjacency:
// rows are V1 (edge.U) for A and V2 (edge.V) for Aᵀ, per transposed.
func patchRows(a *sparse.CSR, ins, del []Edge, transposed bool) *sparse.CSR {
	// An edit's key is row<<33 | col<<1 | 1 for a delete, so sorting
	// the keys groups them by row and orders each row's by column.
	keys := make([]uint64, 0, len(ins)+len(del))
	for i, list := range [2][]Edge{ins, del} {
		for _, e := range list {
			if transposed {
				e.U, e.V = e.V, e.U
			}
			if e.U < 0 || int(e.U) >= a.R || e.V < 0 || int(e.V) >= a.C {
				panic(fmt.Sprintf("graph: patch edge (%d,%d) out of range %dx%d", e.U, e.V, a.R, a.C))
			}
			keys = append(keys, uint64(e.U)<<33|uint64(e.V)<<1|uint64(i))
		}
	}
	slices.Sort(keys)

	// Between touched rows, Col runs are copied in bulk and Ptr entries
	// shift by the running edit delta.
	ptr := make([]int64, a.R+1)
	col := make([]int32, a.NNZ()+int64(len(ins))-int64(len(del)))
	var shift int64
	next := 0 // first row not yet written
	for k := 0; k < len(keys); {
		r := int(keys[k] >> 33)
		k1 := k + 1
		for k1 < len(keys) && int(keys[k1]>>33) == r {
			k1++
		}
		copy(col[a.Ptr[next]+shift:], a.Col[a.Ptr[next]:a.Ptr[r]])
		shiftPtr(ptr[next:r+1], a.Ptr[next:r+1], shift)
		row := a.Row(r)
		n := mergeRow(col[ptr[r]:], row, keys[k:k1], r)
		shift += int64(n - len(row))
		next, k = r+1, k1
	}
	copy(col[a.Ptr[next]+shift:], a.Col[a.Ptr[next]:])
	shiftPtr(ptr[next:], a.Ptr[next:], shift)
	return &sparse.CSR{R: a.R, C: a.C, Ptr: ptr, Col: col}
}

// shiftPtr sets dst[i] = src[i] + shift.
func shiftPtr(dst, src []int64, shift int64) {
	if shift == 0 {
		copy(dst, src)
		return
	}
	src = src[:len(dst)]
	for i := range dst {
		dst[i] = src[i] + shift
	}
}

// mergeRow writes row r, sorted, with its sorted edit keys (see
// patchRows) applied to out and returns the new row length.
func mergeRow(out, row []int32, keys []uint64, r int) int {
	n, i := 0, 0
	for k, key := range keys {
		c := int32(uint32(key >> 1))
		if k > 0 && keys[k-1]>>1 == key>>1 {
			panic(fmt.Sprintf("graph: patch edits edge (%d,%d) twice", r, c))
		}
		for i < len(row) && row[i] < c {
			out[n] = row[i]
			n, i = n+1, i+1
		}
		present := i < len(row) && row[i] == c
		if key&1 == 0 {
			if present {
				panic(fmt.Sprintf("graph: patch inserts present edge (%d,%d)", r, c))
			}
			out[n] = c
			n++
		} else {
			if !present {
				panic(fmt.Sprintf("graph: patch deletes absent edge (%d,%d)", r, c))
			}
			i++
		}
	}
	return n + copy(out[n:], row[i:])
}

// FromEdges builds a graph from an edge list.
func FromEdges(m, n int, edges []Edge) *Bipartite {
	b := NewBuilder(m, n)
	for _, e := range edges {
		b.AddEdge(int(e.U), int(e.V))
	}
	return b.Build()
}

// NumV1 returns |V1|.
func (g *Bipartite) NumV1() int { return g.adj.R }

// NumV2 returns |V2|.
func (g *Bipartite) NumV2() int { return g.adj.C }

// NumEdges returns |E|.
func (g *Bipartite) NumEdges() int64 { return g.adj.NNZ() }

// Adj returns the biadjacency pattern A (V1 rows → V2 columns). The
// returned matrix aliases internal storage; treat it as read-only.
func (g *Bipartite) Adj() *sparse.CSR { return g.adj }

// AdjT returns Aᵀ (V2 rows → V1 columns); read-only.
func (g *Bipartite) AdjT() *sparse.CSR { return g.adjT }

// NeighborsOfV1 returns the V2 neighbors of u ∈ V1 (sorted, read-only).
func (g *Bipartite) NeighborsOfV1(u int) []int32 { return g.adj.Row(u) }

// NeighborsOfV2 returns the V1 neighbors of v ∈ V2 (sorted, read-only).
func (g *Bipartite) NeighborsOfV2(v int) []int32 { return g.adjT.Row(v) }

// DegreeV1 returns deg(u) for u ∈ V1.
func (g *Bipartite) DegreeV1(u int) int { return g.adj.RowDeg(u) }

// DegreeV2 returns deg(v) for v ∈ V2.
func (g *Bipartite) DegreeV2(v int) int { return g.adjT.RowDeg(v) }

// HasEdge reports whether (u, v) ∈ E.
func (g *Bipartite) HasEdge(u, v int) bool { return g.adj.At(u, v) != 0 }

// Edges returns the edge list in row-major order.
func (g *Bipartite) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := 0; u < g.NumV1(); u++ {
		for _, v := range g.adj.Row(u) {
			out = append(out, Edge{U: int32(u), V: v})
		}
	}
	return out
}

// Transposed returns the graph with the two vertex sets swapped (Aᵀ as
// the biadjacency). Storage is shared with g.
func (g *Bipartite) Transposed() *Bipartite {
	return &Bipartite{adj: g.adjT, adjT: g.adj}
}

// Equal reports whether two graphs have identical vertex-set sizes and
// edge sets.
func (g *Bipartite) Equal(h *Bipartite) bool { return g.adj.Equal(h.adj) }

// Density returns |E| / (|V1|·|V2|), the fill fraction of A.
func (g *Bipartite) Density() float64 {
	cells := float64(g.NumV1()) * float64(g.NumV2())
	if cells == 0 {
		return 0
	}
	return float64(g.NumEdges()) / cells
}

// InducedSubgraph returns the subgraph keeping only vertices set in
// keep1/keep2 (nil keeps the whole side). Vertex identifiers are
// preserved — removed vertices simply become isolated. This matches the
// paper's masking semantics (equations (21)–(22), (26)–(27)), where the
// adjacency stays the same shape and rows/columns are zeroed.
func (g *Bipartite) InducedSubgraph(keep1, keep2 *bitvec.Vector) *Bipartite {
	a := sparse.ZeroRowsCols(g.adj, keep1, keep2)
	return &Bipartite{adj: a, adjT: sparse.Transpose(a)}
}

// FilterEdges returns the subgraph retaining only edges for which keep
// returns true.
func (g *Bipartite) FilterEdges(keep func(u, v int32) bool) *Bipartite {
	a := sparse.Select(g.adj, func(i int, j int32, _ int64) bool { return keep(int32(i), j) })
	return &Bipartite{adj: a, adjT: sparse.Transpose(a)}
}

// Compact renumbers away isolated vertices on both sides, returning the
// compacted graph plus the old→new vertex maps (−1 for dropped
// vertices).
func (g *Bipartite) Compact() (h *Bipartite, mapV1, mapV2 []int32) {
	mapV1 = make([]int32, g.NumV1())
	mapV2 = make([]int32, g.NumV2())
	m := 0
	for u := range mapV1 {
		if g.DegreeV1(u) > 0 {
			mapV1[u] = int32(m)
			m++
		} else {
			mapV1[u] = -1
		}
	}
	n := 0
	for v := range mapV2 {
		if g.DegreeV2(v) > 0 {
			mapV2[v] = int32(n)
			n++
		} else {
			mapV2[v] = -1
		}
	}
	b := NewBuilder(m, n)
	for u := 0; u < g.NumV1(); u++ {
		for _, v := range g.adj.Row(u) {
			b.AddEdge(int(mapV1[u]), int(mapV2[v]))
		}
	}
	return b.Build(), mapV1, mapV2
}

// Validate checks internal consistency (adjacency valid, transpose in
// sync); it is cheap insurance after hand-constructed graphs.
func (g *Bipartite) Validate() error {
	if err := g.adj.Validate(); err != nil {
		return fmt.Errorf("graph: adj: %w", err)
	}
	if err := g.adjT.Validate(); err != nil {
		return fmt.Errorf("graph: adjT: %w", err)
	}
	if !sparse.Transpose(g.adj).Equal(g.adjT) {
		return errors.New("graph: adjT is not the transpose of adj")
	}
	return nil
}

// String summarizes the graph.
func (g *Bipartite) String() string {
	return fmt.Sprintf("Bipartite(|V1|=%d, |V2|=%d, |E|=%d)", g.NumV1(), g.NumV2(), g.NumEdges())
}
