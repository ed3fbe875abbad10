package butterfly

import (
	"fmt"

	"butterfly/internal/peel"
)

// KTip returns the k-tip subgraph with respect to the given side: the
// maximal subgraph in which every non-isolated vertex of that side
// participates in at least k butterflies. Vertex ids are preserved;
// peeled vertices become isolated (the paper's masking semantics,
// equations (19)–(22)), computed by the recount engine on one thread.
func (g *Graph) KTip(k int64, side Side) (*Graph, error) {
	if k < 0 {
		return nil, fmt.Errorf("butterfly: negative k %d", k)
	}
	if err := checkSide(side); err != nil {
		return nil, err
	}
	sub, _ := peel.KTipWith(g.g, k, side, peel.Options{Engine: peel.EngineRecount, Threads: 1})
	return &Graph{g: sub}, nil
}

// KTipLookAhead computes the same k-tip with the paper's fused
// look-ahead algorithm (Fig 8, KTIP_UNB_VAR1), which applies the mask
// while the butterfly vector is still being computed. The result is
// identical to KTip; the variant exists because its single fused sweep
// has different performance characteristics.
func (g *Graph) KTipLookAhead(k int64, side Side) (*Graph, error) {
	if k < 0 {
		return nil, fmt.Errorf("butterfly: negative k %d", k)
	}
	if err := checkSide(side); err != nil {
		return nil, err
	}
	return &Graph{g: peel.KTipLookAhead(g.g, k, side)}, nil
}

// KWing returns the k-wing subgraph: the maximal subgraph in which
// every remaining edge lies in at least k butterflies (equations
// (25)–(27)), computed by the recount engine on one thread.
func (g *Graph) KWing(k int64) (*Graph, error) {
	if k < 0 {
		return nil, fmt.Errorf("butterfly: negative k %d", k)
	}
	sub, _ := peel.KWingWith(g.g, k, peel.Options{Engine: peel.EngineRecount, Threads: 1})
	return &Graph{g: sub}, nil
}

// TipNumbers returns, for every vertex of the chosen side, the largest
// k such that the vertex survives in the k-tip (its "tip number").
// Computed by the delta engine on one thread, a single peeling pass
// rather than one KTip call per k.
func (g *Graph) TipNumbers(side Side) ([]int64, error) {
	if err := checkSide(side); err != nil {
		return nil, err
	}
	tip, _ := peel.TipNumbersWith(g.g, side, peel.Options{Threads: 1})
	return tip, nil
}

// PeelEngine selects the execution strategy of the parallel peeling
// entry points. Both engines produce bit-identical results (peeling is
// confluent); they differ only in how much work each round does.
type PeelEngine = peel.Engine

const (
	// PeelDelta is the incremental engine (default): bucketed peeling
	// whose work is proportional to the butterflies actually destroyed.
	PeelDelta = peel.EngineDelta
	// PeelRecount is the round-synchronous engine: every round
	// recomputes all surviving supports from scratch. Kept as the
	// differential-testing oracle and for few-level workloads with
	// enormous delta fan-out.
	PeelRecount = peel.EngineRecount
)

// ParsePeelEngine converts an engine name to its engine; it accepts
// exactly the String spellings.
func ParsePeelEngine(s string) (PeelEngine, error) {
	return parseEnum(s, "peel engine", PeelDelta, PeelRecount, PeelEngine.String)
}

// PeelOptions configures an engine-dispatched peeling run. Engine is
// PeelDelta (the zero value) or PeelRecount; a delta wing run holds a
// bloom index whose memory follows the priority-obeying wedges (about
// 218 MB on K_{300,300}), the recount engine O(|E|) state. Threads
// ≤ 0 means one per CPU, and it is capped at GOMAXPROCS. Stage, when
// non-nil, receives "peel.seed" and per-round "peel.round[i]" timings,
// which the serving layer adapts to trace spans.
type PeelOptions = peel.Options

// PeelStats reports how a peeling run executed: the engine that ran
// and its round count.
type PeelStats = peel.Stats

// TipNumbersWith computes tip numbers on the engine selected by opts.
// Results are identical across engines.
func (g *Graph) TipNumbersWith(side Side, opts PeelOptions) ([]int64, PeelStats, error) {
	if err := checkSide(side); err != nil {
		return nil, PeelStats{}, err
	}
	tip, st := peel.TipNumbersWith(g.g, side, opts)
	return tip, st, nil
}

// WingNumbersWith computes wing numbers on the engine selected by opts.
// Results are identical across engines.
func (g *Graph) WingNumbersWith(opts PeelOptions) ([]EdgeCount, PeelStats) {
	wing, st := peel.WingNumbersWith(g.g, opts)
	return g.wingNumbersFrom(wing), st
}

// KTipWith extracts the k-tip subgraph on the engine selected by opts.
func (g *Graph) KTipWith(k int64, side Side, opts PeelOptions) (*Graph, PeelStats, error) {
	if k < 0 {
		return nil, PeelStats{}, fmt.Errorf("butterfly: negative k %d", k)
	}
	if err := checkSide(side); err != nil {
		return nil, PeelStats{}, err
	}
	sub, st := peel.KTipWith(g.g, k, side, opts)
	return &Graph{g: sub}, st, nil
}

// KWingWith extracts the k-wing subgraph on the engine selected by opts.
func (g *Graph) KWingWith(k int64, opts PeelOptions) (*Graph, PeelStats, error) {
	if k < 0 {
		return nil, PeelStats{}, fmt.Errorf("butterfly: negative k %d", k)
	}
	sub, st := peel.KWingWith(g.g, k, opts)
	return &Graph{g: sub}, st, nil
}

// WingNumbers returns the wing number of every edge — the largest k
// such that the edge survives in the k-wing — as (u, v, count) tuples
// in row-major edge order. Computed by the delta engine on one thread.
func (g *Graph) WingNumbers() []EdgeCount {
	wing, _ := peel.WingNumbersWith(g.g, peel.Options{Threads: 1})
	return g.wingNumbersFrom(wing)
}

// DensestSubgraph holds the result of DensestByButterflies; it is the
// peeling engine's own DensestResult. Keep marks the surviving
// vertices of the peeled side: feed it to InducedSubgraph to
// materialize the subgraph. Butterflies and Vertices count the
// selected subgraph, and Density is their ratio.
type DensestSubgraph = peel.DensestResult

// DensestByButterflies greedily peels minimum-butterfly vertices of
// the chosen side (the tip-decomposition order) and returns the prefix
// maximizing butterflies per retained vertex — the dense-region
// extraction the paper's abstract motivates. On a planted biclique it
// recovers the block exactly.
func (g *Graph) DensestByButterflies(side Side) (DensestSubgraph, error) {
	if err := checkSide(side); err != nil {
		return DensestSubgraph{}, err
	}
	return peel.DensestByButterflies(g.g, side), nil
}

func (g *Graph) wingNumbersFrom(wing []int64) []EdgeCount {
	adj := g.g.Adj()
	out := make([]EdgeCount, 0, len(wing))
	for u := 0; u < adj.R; u++ {
		row := adj.Row(u)
		for k, v := range row {
			out = append(out, EdgeCount{U: u, V: int(v), Count: wing[adj.Ptr[u]+int64(k)]})
		}
	}
	return out
}
