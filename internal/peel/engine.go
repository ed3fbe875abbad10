package peel

// Engine selection for the peeling algorithms: every decomposition and
// k-subgraph extraction runs on one of two engines that produce
// bit-identical results (peeling is confluent):
//
//   - EngineDelta (default): the incremental engine — bucketed peeling
//     with exact support decrements (deltaLevels, deltaBelow). Work is
//     proportional to the butterflies destroyed; the hot path of choice.
//   - EngineRecount: the round-synchronous engine — every round
//     recomputes all surviving supports from scratch (recountLevels,
//     recountBelow). O(levels × wedges), but structurally trivial; kept
//     as the differential-testing oracle and as a fallback for
//     workloads with very few levels and enormous delta fan-out.
//
// Each engine runs tips and wings through the same two loops; the kind
// of peel is a value (kind.go), not a code path.

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
	// EngineDelta is the incremental engine (default): bucketed peeling
	// whose work is proportional to the butterflies actually destroyed.
	EngineDelta Engine = iota
	// EngineRecount is the round-synchronous engine: every round
	// recomputes all surviving supports from scratch. Kept as the
	// differential-testing oracle and for few-level workloads with
	// enormous delta fan-out.
	EngineRecount
)

// String names the engine using the wire/CLI spelling.
func (e Engine) String() string {
	if e == EngineRecount {
		return "recount"
	}
	return "delta"
}

// Options configures an engine-dispatched peeling run. It has no
// aggregation knob: the engines keep per-vertex and per-edge supports
// indexed by id, which needs the dense histogram accumulator — the
// sort/hash/batch wedge aggregations only apply to scalar whole-graph
// counts.
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
	// Engine is the engine that ran.
	Engine Engine
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

// levels runs the decomposition of p on the selected engine.
func (o Options) levels(p kind) ([]int64, Stats) {
	run := deltaLevels
	if o.Engine == EngineRecount {
		run = recountLevels
	}
	num, rounds := run(p, o.Stage)
	return num, Stats{Engine: o.Engine, Rounds: rounds}
}

// below peels every id of p whose support is below k, to the
// fixpoint, on the selected engine.
func (o Options) below(p kind, k int64) (*graph.Bipartite, Stats) {
	run := deltaBelow
	if o.Engine == EngineRecount {
		run = recountBelow
	}
	sub, rounds := run(p, k, o.Stage)
	return sub, Stats{Engine: o.Engine, Rounds: rounds}
}

// TipNumbersWith runs the tip decomposition on the selected engine.
func TipNumbersWith(g *graph.Bipartite, side core.Side, o Options) ([]int64, Stats) {
	return o.levels(tips(g, side, o.threads()))
}

// WingNumbersWith runs the wing decomposition on the selected engine.
func WingNumbersWith(g *graph.Bipartite, o Options) ([]int64, Stats) {
	return o.levels(wings(g, o.threads()))
}

// KTipWith extracts the k-tip subgraph on the selected engine.
func KTipWith(g *graph.Bipartite, k int64, side core.Side, o Options) (*graph.Bipartite, Stats) {
	return o.below(tips(g, side, o.threads()), k)
}

// KWingWith extracts the k-wing subgraph on the selected engine.
func KWingWith(g *graph.Bipartite, k int64, o Options) (*graph.Bipartite, Stats) {
	return o.below(wings(g, o.threads()), k)
}
