package butterfly

import (
	"fmt"
	"time"

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
	s, err := side.internal()
	if err != nil {
		return nil, err
	}
	sub, _ := peel.KTipWith(g.g, k, s, peel.Options{Engine: peel.EngineRecount, Threads: 1})
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
	s, err := side.internal()
	if err != nil {
		return nil, err
	}
	return &Graph{g: peel.KTipLookAhead(g.g, k, s)}, nil
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
	s, err := side.internal()
	if err != nil {
		return nil, err
	}
	tip, _ := peel.TipNumbersWith(g.g, s, peel.Options{Threads: 1})
	return tip, nil
}

// PeelEngine selects the execution strategy of the parallel peeling
// entry points. Both engines produce bit-identical results (peeling is
// confluent); they differ only in how much work each round does.
type PeelEngine int

const (
	// PeelDelta is the incremental wedge-delta engine (default):
	// bucketed peeling whose work is proportional to the butterflies
	// actually destroyed.
	PeelDelta PeelEngine = iota
	// PeelRecount is the round-synchronous engine: every round
	// recomputes all surviving supports from scratch. Kept as the
	// differential-testing oracle and for few-level workloads with
	// enormous delta fan-out.
	PeelRecount
)

// String names the engine with the wire/CLI spelling.
func (e PeelEngine) String() string {
	if e == PeelRecount {
		return "recount"
	}
	return "delta"
}

// PeelOptions configures an engine-dispatched peeling run.
// PeelOptions deliberately has no Agg knob (unlike CountOptions): the
// peeling engines run per-vertex and per-edge masked counters whose
// outputs are indexed by vertex/edge id, which requires the dense
// histogram accumulator — the sort/hash/batch wedge-aggregation
// kernels only apply to scalar whole-graph counts. This is the same
// reason hub-split segments always aggregate through the histogram.
type PeelOptions struct {
	// Engine selects the delta (zero value) or recount execution. A
	// delta k-wing or wing-number run holds a bloom index whose memory
	// follows the priority-obeying wedges, not the edges: 16 B per
	// stored wedge plus at most 8 B per wedge of bloom records and 8 B
	// per edge. The wedges number at most the smaller Σ deg² of the two
	// sides, n²(n − 1)/2 on K_{n,n} (about 218 MB at n = 300). The
	// recount engine keeps O(|E|) state.
	Engine PeelEngine
	// Threads is the worker count; ≤ 0 means one per CPU, and it is
	// capped at GOMAXPROCS.
	Threads int
	// Stage, when non-nil, receives named sub-stage timings:
	// "peel.seed" for the initial butterfly/support sweep — on a delta
	// wing run, the bloom index build that yields the supports — and
	// "peel.round[i]" for every peeled batch or recompute round. The
	// hook fires once per round — never inside the wedge kernels — so
	// a nil hook costs one predictable branch per round. The serving
	// layer adapts this to trace spans.
	Stage func(stage string, d time.Duration)
}

// PeelStats reports how a peeling run executed.
type PeelStats struct {
	// Engine is the engine that actually ran.
	Engine PeelEngine
	// Rounds is the number of peeled batches (delta) or recompute
	// rounds (recount). Engines legitimately differ here: the delta
	// engine counts the sub-rounds its cascades replay.
	Rounds int
}

func (o PeelOptions) internal() peel.Options {
	po := peel.Options{Threads: o.Threads, Stage: o.Stage}
	if o.Engine == PeelRecount {
		po.Engine = peel.EngineRecount
	}
	return po
}

// TipNumbersWith computes tip numbers on the engine selected by opts.
// Results are identical across engines.
func (g *Graph) TipNumbersWith(side Side, opts PeelOptions) ([]int64, PeelStats, error) {
	s, err := side.internal()
	if err != nil {
		return nil, PeelStats{}, err
	}
	tip, st := peel.TipNumbersWith(g.g, s, opts.internal())
	return tip, PeelStats{Engine: opts.Engine, Rounds: st.Rounds}, nil
}

// WingNumbersWith computes wing numbers on the engine selected by opts.
// Results are identical across engines.
func (g *Graph) WingNumbersWith(opts PeelOptions) ([]EdgeCount, PeelStats) {
	wing, st := peel.WingNumbersWith(g.g, opts.internal())
	return g.wingNumbersFrom(wing), PeelStats{Engine: opts.Engine, Rounds: st.Rounds}
}

// KTipWith extracts the k-tip subgraph on the engine selected by opts.
func (g *Graph) KTipWith(k int64, side Side, opts PeelOptions) (*Graph, PeelStats, error) {
	if k < 0 {
		return nil, PeelStats{}, fmt.Errorf("butterfly: negative k %d", k)
	}
	s, err := side.internal()
	if err != nil {
		return nil, PeelStats{}, err
	}
	sub, st := peel.KTipWith(g.g, k, s, opts.internal())
	return &Graph{g: sub}, PeelStats{Engine: opts.Engine, Rounds: st.Rounds}, nil
}

// KWingWith extracts the k-wing subgraph on the engine selected by opts.
func (g *Graph) KWingWith(k int64, opts PeelOptions) (*Graph, PeelStats, error) {
	if k < 0 {
		return nil, PeelStats{}, fmt.Errorf("butterfly: negative k %d", k)
	}
	sub, st := peel.KWingWith(g.g, k, opts.internal())
	return &Graph{g: sub}, PeelStats{Engine: opts.Engine, Rounds: st.Rounds}, nil
}

// WingNumbers returns the wing number of every edge — the largest k
// such that the edge survives in the k-wing — as (u, v, count) tuples
// in row-major edge order. Computed by the delta engine on one thread.
func (g *Graph) WingNumbers() []EdgeCount {
	wing, _ := peel.WingNumbersWith(g.g, peel.Options{Threads: 1})
	return g.wingNumbersFrom(wing)
}

// DensestSubgraph holds the result of DensestByButterflies.
type DensestSubgraph struct {
	// Keep marks the surviving vertices of the peeled side; feed it to
	// InducedSubgraph to materialize the subgraph.
	Keep []bool
	// Butterflies and Vertices of the selected subgraph; Density is
	// their ratio.
	Butterflies int64
	Vertices    int
	Density     float64
}

// DensestByButterflies greedily peels minimum-butterfly vertices of
// the chosen side (the tip-decomposition order) and returns the prefix
// maximizing butterflies per retained vertex — the dense-region
// extraction the paper's abstract motivates. On a planted biclique it
// recovers the block exactly.
func (g *Graph) DensestByButterflies(side Side) (DensestSubgraph, error) {
	s, err := side.internal()
	if err != nil {
		return DensestSubgraph{}, err
	}
	r := peel.DensestByButterflies(g.g, s)
	return DensestSubgraph{
		Keep:        r.KeepSide,
		Butterflies: r.Butterflies,
		Vertices:    r.Vertices,
		Density:     r.Density,
	}, nil
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
