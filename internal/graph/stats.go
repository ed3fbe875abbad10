package graph

import (
	"fmt"
	"strings"
)

// Stats summarizes a bipartite graph with the quantities the paper's
// Fig 9 reports, plus the degree statistics its Section V analysis
// relies on (partition-size asymmetry, edge sparsity).
type Stats struct {
	NumV1, NumV2 int
	NumEdges     int64
	Density      float64

	MinDegV1, MaxDegV1 int
	MinDegV2, MaxDegV2 int
	AvgDegV1, AvgDegV2 float64

	// WedgesV1 counts wedges whose endpoints lie in V1 (wedge point in
	// V2): Σ_{v∈V2} C(deg(v), 2). WedgesV2 is symmetric. These bound the
	// work of the two algorithm families: invariants 1–4 enumerate
	// WedgesV1, invariants 5–8 enumerate WedgesV2.
	WedgesV1, WedgesV2 int64
}

func binom2(x int64) int64 { return x * (x - 1) / 2 }

// ComputeStats walks the graph once per side.
func ComputeStats(g *Bipartite) Stats {
	s := Stats{
		NumV1:    g.NumV1(),
		NumV2:    g.NumV2(),
		NumEdges: g.NumEdges(),
		Density:  g.Density(),
	}
	if s.NumV1 > 0 {
		s.MinDegV1 = g.DegreeV1(0)
	}
	for u := 0; u < s.NumV1; u++ {
		d := g.DegreeV1(u)
		if d < s.MinDegV1 {
			s.MinDegV1 = d
		}
		if d > s.MaxDegV1 {
			s.MaxDegV1 = d
		}
		s.WedgesV2 += binom2(int64(d))
	}
	if s.NumV2 > 0 {
		s.MinDegV2 = g.DegreeV2(0)
	}
	for v := 0; v < s.NumV2; v++ {
		d := g.DegreeV2(v)
		if d < s.MinDegV2 {
			s.MinDegV2 = d
		}
		if d > s.MaxDegV2 {
			s.MaxDegV2 = d
		}
		s.WedgesV1 += binom2(int64(d))
	}
	if s.NumV1 > 0 {
		s.AvgDegV1 = float64(s.NumEdges) / float64(s.NumV1)
	}
	if s.NumV2 > 0 {
		s.AvgDegV2 = float64(s.NumEdges) / float64(s.NumV2)
	}
	return s
}

// String renders the stats in a compact one-line form.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "|V1|=%d |V2|=%d |E|=%d density=%.3g", s.NumV1, s.NumV2, s.NumEdges, s.Density)
	fmt.Fprintf(&sb, " degV1=[%d,%d] avg %.2f", s.MinDegV1, s.MaxDegV1, s.AvgDegV1)
	fmt.Fprintf(&sb, " degV2=[%d,%d] avg %.2f", s.MinDegV2, s.MaxDegV2, s.AvgDegV2)
	fmt.Fprintf(&sb, " wedges(V1-endpoints)=%d wedges(V2-endpoints)=%d", s.WedgesV1, s.WedgesV2)
	return sb.String()
}
