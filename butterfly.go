// Package butterfly counts, enumerates and peels butterflies (2×2
// bicliques) in bipartite graphs.
//
// It is a Go implementation of "Families of Butterfly Counting
// Algorithms for Bipartite Graphs" (Acosta, Low, Parikh; IPPS 2022):
// the paper derives eight provably-correct counting algorithms from a
// single linear-algebraic specification with the FLAME methodology, and
// extends the same formulation to k-tip and k-wing peeling. This
// package exposes the whole family (Invariant1 … Invariant8) plus
// sequential, parallel and blocked execution, per-vertex and per-edge
// butterfly counts, tip/wing subgraphs and decompositions, sampling
// estimators, and KONECT-format I/O.
//
// # Quick start
//
//	b := butterfly.NewBuilder(2, 2)
//	b.AddEdge(0, 0)
//	b.AddEdge(0, 1)
//	b.AddEdge(1, 0)
//	b.AddEdge(1, 1)
//	g := b.MustBuild()
//	fmt.Println(g.Count()) // 1
//
// Unless an explicit Invariant is requested, counting uses the paper's
// selection rule: partition the smaller vertex side, preferring the
// look-ahead family member.
package butterfly

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"butterfly/internal/core"
	"butterfly/internal/graph"
	"butterfly/internal/konect"
)

// Graph is an immutable simple bipartite graph with vertex sets V1
// (size m) and V2 (size n). Zero value is not usable; construct with
// Builder, FromEdges, the generators, or the KONECT readers.
type Graph struct {
	g *graph.Bipartite
}

// Builder accumulates edges for a Graph. Duplicate edges collapse.
type Builder struct {
	b    *graph.Builder
	m, n int
	err  error
}

// NewBuilder returns a builder for a graph with |V1| = m, |V2| = n.
func NewBuilder(m, n int) *Builder {
	if m < 0 || n < 0 {
		return &Builder{err: fmt.Errorf("butterfly: negative vertex-set size %d/%d", m, n)}
	}
	return &Builder{b: graph.NewBuilder(m, n), m: m, n: n}
}

// AddEdge records the edge (u ∈ V1, v ∈ V2). Out-of-range endpoints
// are recorded as an error returned by Build.
func (b *Builder) AddEdge(u, v int) *Builder {
	if b.err != nil {
		return b
	}
	if u < 0 || u >= b.m || v < 0 || v >= b.n {
		b.err = fmt.Errorf("butterfly: edge (%d,%d) out of range %dx%d", u, v, b.m, b.n)
		return b
	}
	b.b.AddEdge(u, v)
	return b
}

// Build finalizes the graph or reports the first recorded error.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	return &Graph{g: b.b.Build()}, nil
}

// MustBuild is Build for statically-known-good edge sets; it panics on
// error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges builds a graph from (u, v) pairs.
func FromEdges(m, n int, edges [][2]int) (*Graph, error) {
	b := NewBuilder(m, n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// ReadKONECT parses a bipartite edge list in KONECT format (see
// internal/konect for the dialect).
func ReadKONECT(r io.Reader) (*Graph, error) {
	g, err := konect.ReadGraph(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// ReadKONECTFile reads a KONECT file from disk.
func ReadKONECTFile(path string) (*Graph, error) {
	g, err := konect.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// WriteKONECT emits the graph in KONECT format.
func (g *Graph) WriteKONECT(w io.Writer) error { return konect.WriteGraph(w, g.g) }

// WriteKONECTFile writes the graph to the named file.
func (g *Graph) WriteKONECTFile(path string) error { return konect.WriteFile(path, g.g) }

// NumV1 returns |V1|.
func (g *Graph) NumV1() int { return g.g.NumV1() }

// NumV2 returns |V2|.
func (g *Graph) NumV2() int { return g.g.NumV2() }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int64 { return g.g.NumEdges() }

// HasEdge reports whether (u, v) ∈ E; out-of-range endpoints are false.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.NumV1() || v < 0 || v >= g.NumV2() {
		return false
	}
	return g.g.HasEdge(u, v)
}

// DegreeV1 returns the degree of u ∈ V1.
func (g *Graph) DegreeV1(u int) int { return g.g.DegreeV1(u) }

// DegreeV2 returns the degree of v ∈ V2.
func (g *Graph) DegreeV2(v int) int { return g.g.DegreeV2(v) }

// NeighborsV1 returns a copy of u's neighbor list (V2 ids, ascending).
func (g *Graph) NeighborsV1(u int) []int {
	nbrs := g.g.NeighborsOfV1(u)
	out := make([]int, len(nbrs))
	for i, v := range nbrs {
		out[i] = int(v)
	}
	return out
}

// NeighborsV2 returns a copy of v's neighbor list (V1 ids, ascending).
func (g *Graph) NeighborsV2(v int) []int {
	nbrs := g.g.NeighborsOfV2(v)
	out := make([]int, len(nbrs))
	for i, u := range nbrs {
		out[i] = int(u)
	}
	return out
}

// Edges returns the edge list as (u, v) pairs in row-major order.
func (g *Graph) Edges() [][2]int {
	es := g.g.Edges()
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{int(e.U), int(e.V)}
	}
	return out
}

// Transposed returns the graph with the vertex sides swapped; storage
// is shared.
func (g *Graph) Transposed() *Graph { return &Graph{g: g.g.Transposed()} }

// Equal reports whether two graphs have identical sizes and edge sets.
func (g *Graph) Equal(h *Graph) bool { return g.g.Equal(h.g) }

// Density returns |E| / (|V1|·|V2|).
func (g *Graph) Density() float64 { return g.g.Density() }

// String summarizes the graph.
func (g *Graph) String() string { return g.g.String() }

// Stats summarizes the graph with the quantities the paper's Fig 9
// and Section V analysis use. It is the graph layer's own type:
// WedgesV1 counts wedges with both endpoints in V1 (these are what the
// column-partitioned family enumerates), WedgesV2 symmetric.
type Stats = graph.Stats

// Stats computes summary statistics in one pass per side.
func (g *Graph) Stats() Stats { return graph.ComputeStats(g.g) }

// Side selects one bipartition side. It is the counting core's own
// type; String gives "V1" or "V2".
type Side = core.Side

const (
	// V1 is the row side of the biadjacency matrix.
	V1 = core.SideV1
	// V2 is the column side.
	V2 = core.SideV2
)

// ParseSide converts "v1" or "v2", the lower-case String spellings, to
// its side.
func ParseSide(s string) (Side, error) {
	return parseEnum(s, "side", V1, V2, func(sd Side) string { return strings.ToLower(sd.String()) })
}

// checkSide rejects a Side that is neither V1 nor V2.
func checkSide(side Side) error {
	if side != V1 && side != V2 {
		return fmt.Errorf("butterfly: invalid side %d", int(side))
	}
	return nil
}

var errNilGraph = errors.New("butterfly: nil graph")
