package peel

// Engine selection for the peeling algorithms: every decomposition and
// k-subgraph extraction exists in two parallel flavors that produce
// bit-identical results (peeling is confluent):
//
//   - EngineDelta (default): the incremental engine — bucketed peeling
//     with exact wedge-delta support updates. Work is proportional to
//     the butterflies destroyed; the hot path of choice.
//   - EngineRecount: the round-synchronous engine — every round
//     recomputes all surviving supports from scratch. O(levels ×
//     wedges), but structurally trivial; kept as the differential-
//     testing oracle and as a fallback for workloads with very few
//     levels and enormous delta fan-out.

import (
	"fmt"
	"runtime"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/graph"
)

// Engine selects the peeling execution strategy.
type Engine int

const (
	// EngineDelta is the incremental wedge-delta engine (default).
	EngineDelta Engine = iota
	// EngineRecount is the round-synchronous full-recount engine.
	EngineRecount
)

// String names the engine using the wire/CLI spelling.
func (e Engine) String() string {
	if e == EngineRecount {
		return "recount"
	}
	return "delta"
}

// Options configures an engine-dispatched peeling run.
type Options struct {
	// Engine selects delta (zero value) or recount execution. A delta
	// wing run holds a core.BloomIndex, whose memory follows the
	// priority-obeying wedges, not the edges: 16 B per stored wedge
	// plus at most 8 B per wedge of bloom records and 8 B per edge.
	// The wedges number at most the smaller Σ deg² of the two sides,
	// n²(n − 1)/2 on K_{n,n} (about 218 MB at n = 300). The recount
	// engine keeps O(|E|) state.
	Engine Engine
	// Threads is the worker count; ≤ 0 means one per CPU, and it is
	// capped at GOMAXPROCS.
	Threads int
	// Stage, when non-nil, receives named sub-stage timings:
	// "peel.seed" for the initial butterfly/support sweep — on a delta
	// wing run, the core.BloomIndex build that yields the supports — and
	// "peel.round[i]" for every peeled batch (delta) or recompute
	// round (recount). The hook fires once per round, never inside the
	// wedge kernels, so a nil hook costs one predictable branch per
	// round and an installed hook two time.Now calls per round —
	// invisible next to the round's own work.
	Stage func(name string, d time.Duration)
}

// stageFunc is the per-run stage timing hook type shared by the
// engines. nil disables all emission.
type stageFunc = func(name string, d time.Duration)

// stageNow returns the round start time, or the zero time when timing
// is disabled.
func stageNow(stage stageFunc) time.Time {
	if stage == nil {
		return time.Time{}
	}
	return time.Now()
}

// emitStage reports one named stage to a non-nil hook.
func emitStage(stage stageFunc, name string, t0 time.Time) {
	if stage != nil {
		stage(name, time.Since(t0))
	}
}

// emitRound reports peeling round i (zero-based) to a non-nil hook.
func emitRound(stage stageFunc, i int, t0 time.Time) {
	if stage != nil {
		stage(fmt.Sprintf("peel.round[%d]", i), time.Since(t0))
	}
}

// Stats reports how a peeling run executed.
type Stats struct {
	// Rounds is the number of peeled batches (delta) or recompute
	// rounds (recount). Engines may legitimately differ: the delta
	// engine counts the sub-rounds its cascades replay.
	Rounds int
}

// threads resolves the worker count: ≤ 0 means one per CPU, and a
// larger request is clamped to GOMAXPROCS, because every worker holds
// a side-wide accumulator and extra workers cannot run in parallel.
func (o Options) threads() int {
	if p := runtime.GOMAXPROCS(0); o.Threads <= 0 || o.Threads > p {
		return p
	}
	return o.Threads
}

// TipNumbersWith runs the tip decomposition on the selected engine.
func TipNumbersWith(g *graph.Bipartite, side core.Side, o Options) ([]int64, Stats) {
	if o.Engine == EngineRecount {
		tip, rounds := tipDecompositionRecount(g, side, o.threads(), o.Stage)
		return tip, Stats{Rounds: rounds}
	}
	tip, rounds := tipDecompositionDelta(g, side, o.threads(), o.Stage)
	return tip, Stats{Rounds: rounds}
}

// WingNumbersWith runs the wing decomposition on the selected engine.
func WingNumbersWith(g *graph.Bipartite, o Options) ([]int64, Stats) {
	if o.Engine == EngineRecount {
		wing, rounds := wingDecompositionRecount(g, o.threads(), o.Stage)
		return wing, Stats{Rounds: rounds}
	}
	wing, rounds := wingDecompositionDelta(g, o.threads(), o.Stage)
	return wing, Stats{Rounds: rounds}
}

// KTipWith extracts the k-tip subgraph on the selected engine.
func KTipWith(g *graph.Bipartite, k int64, side core.Side, o Options) (*graph.Bipartite, Stats) {
	if o.Engine == EngineRecount {
		sub, rounds := kTipRecount(g, k, side, o.threads(), o.Stage)
		return sub, Stats{Rounds: rounds}
	}
	sub, rounds := kTipDelta(g, k, side, o.threads(), o.Stage)
	return sub, Stats{Rounds: rounds}
}

// KWingWith extracts the k-wing subgraph on the selected engine.
func KWingWith(g *graph.Bipartite, k int64, o Options) (*graph.Bipartite, Stats) {
	if o.Engine == EngineRecount {
		sub, rounds := kWingRecount(g, k, o.threads(), o.Stage)
		return sub, Stats{Rounds: rounds}
	}
	sub, rounds := kWingDelta(g, k, o.threads(), o.Stage)
	return sub, Stats{Rounds: rounds}
}
