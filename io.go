package butterfly

import (
	"io"

	"butterfly/internal/graph"
	"butterfly/internal/matrixmarket"
)

// ReadMatrixMarket parses a biadjacency matrix in MatrixMarket
// coordinate format (rows = V1, columns = V2; pattern, integer or real
// fields; any non-zero value is an edge).
func ReadMatrixMarket(r io.Reader) (*Graph, error) {
	g, err := matrixmarket.ReadGraph(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// ReadMatrixMarketFile reads a MatrixMarket file from disk.
func ReadMatrixMarketFile(path string) (*Graph, error) {
	g, err := matrixmarket.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// WriteMatrixMarket emits the biadjacency matrix in MatrixMarket
// coordinate-pattern format.
func (g *Graph) WriteMatrixMarket(w io.Writer) error {
	return matrixmarket.WriteGraph(w, g.g)
}

// WriteMatrixMarketFile writes the graph to the named file.
func (g *Graph) WriteMatrixMarketFile(path string) error {
	return matrixmarket.WriteFile(path, g.g)
}

// Components labels connected components: the returned slices give a
// 0-based component id for every V1 and V2 vertex (isolated vertices
// get singleton components), plus the component count. Butterflies
// never span components, so large analyses can shard by them.
func (g *Graph) Components() (compV1, compV2 []int, count int) {
	c1, c2, n := graph.Components(g.g)
	compV1 = make([]int, len(c1))
	for i, c := range c1 {
		compV1[i] = int(c)
	}
	compV2 = make([]int, len(c2))
	for i, c := range c2 {
		compV2[i] = int(c)
	}
	return compV1, compV2, n
}

// LargestComponent returns the subgraph induced by the component with
// the most edges; vertex ids are preserved.
func (g *Graph) LargestComponent() *Graph {
	return &Graph{g: graph.LargestComponent(g.g)}
}

// WriteDOT renders the graph in Graphviz DOT format (V1 as boxes, V2
// as ellipses) for visual inspection of small graphs and peeling
// results.
func (g *Graph) WriteDOT(w io.Writer, name string) error {
	return graph.WriteDOT(w, g.g, name)
}

// DegreeHistogram returns hist[d] = number of vertices of the side
// with degree d.
func (g *Graph) DegreeHistogram(side Side) ([]int64, error) {
	if err := checkSide(side); err != nil {
		return nil, err
	}
	return graph.DegreeHistogram(g.g, side == V1), nil
}

// DegreeGini returns the Gini coefficient of the side's degree
// distribution: 0 = uniform, → 1 = hub-dominated. High values predict
// chunk-level load imbalance in the parallel counting loop.
func (g *Graph) DegreeGini(side Side) (float64, error) {
	if err := checkSide(side); err != nil {
		return 0, err
	}
	return graph.DegreeGini(g.g, side == V1), nil
}
