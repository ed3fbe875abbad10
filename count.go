package butterfly

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"butterfly/internal/baseline"
	"butterfly/internal/core"
	"butterfly/internal/estimate"
)

// Invariant selects a member of the paper's algorithm family. The zero
// value (InvariantAuto) applies the paper's selection rule: partition
// the smaller vertex side, preferring the look-ahead member. It is the
// counting core's own type; String gives "auto", "Inv1" … "Inv8".
type Invariant = core.Invariant

// The eight loop invariants of the paper (Fig 4 and Fig 5).
// Invariant1–4 partition V2 and traverse columns of the biadjacency
// matrix; Invariant5–8 partition V1 and traverse rows. Invariant2,
// Invariant3, Invariant6 and Invariant7 are "look-ahead" algorithms —
// they count against the partition that has not been exposed yet.
const (
	InvariantAuto Invariant = 0
	Invariant1              = core.Inv1
	Invariant2              = core.Inv2
	Invariant3              = core.Inv3
	Invariant4              = core.Inv4
	Invariant5              = core.Inv5
	Invariant6              = core.Inv6
	Invariant7              = core.Inv7
	Invariant8              = core.Inv8
)

// NumInvariants is the size of the family.
const NumInvariants = core.NumInvariants

// Algorithm selects the counting implementation. The default
// (AlgorithmFamily) is the paper's loop-invariant family; the others
// are the independent counters the paper builds on or compares with,
// exposed so downstream users can benchmark against them on their own
// data.
type Algorithm int

const (
	// AlgorithmFamily is the paper's derived family (Invariant picks
	// the member; supports Threads and BlockSize).
	AlgorithmFamily Algorithm = iota
	// AlgorithmWedgeHash is the hash-aggregation counter of Wang et
	// al. 2014 — O(Σdeg²) space.
	AlgorithmWedgeHash
	// AlgorithmVertexPriority is the priority-ordered counter of Wang
	// et al. 2019.
	AlgorithmVertexPriority
	// AlgorithmSortAggregate is the sort-based wedge aggregation of
	// ParButterfly (Shi & Shun 2019); supports Threads.
	AlgorithmSortAggregate
	// AlgorithmSpGEMM executes the linear-algebra specification
	// directly on the sparse substrate (materializes AAᵀ); supports
	// Threads.
	AlgorithmSpGEMM
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgorithmFamily:
		return "family"
	case AlgorithmWedgeHash:
		return "wedge-hash"
	case AlgorithmVertexPriority:
		return "vertex-priority"
	case AlgorithmSortAggregate:
		return "sort-aggregate"
	case AlgorithmSpGEMM:
		return "spgemm"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// AggPolicy selects the wedge-aggregation kernel of the counting core —
// how one exposed vertex's wedge multiset is materialized before the
// butterfly formula is applied. Every mode returns the exact count;
// they differ only in memory behavior (ParButterfly's observation that
// sort-, hash-, histogram- and batch-based aggregation each win on
// different graph shapes). It is the counting core's own type; String
// gives "auto", "sort", "hash", "hist" or "batch".
type AggPolicy = core.AggPolicy

const (
	// AggAuto (the default) picks per graph from its degree profile.
	AggAuto = core.AggAuto
	// AggSort radix-sorts gathered wedge endpoints and counts runs.
	AggSort = core.AggSort
	// AggHash aggregates in an open-addressing table keyed by partner.
	AggHash = core.AggHash
	// AggHist aggregates in the dense per-endpoint counter array.
	AggHist = core.AggHist
	// AggBatch gathers into fixed-size buffers flushed through the
	// histogram, bounding memory on huge hubs.
	AggBatch = core.AggBatch
)

// ParseAlgorithm converts an algorithm name to its algorithm; it
// accepts exactly the String spellings.
func ParseAlgorithm(s string) (Algorithm, error) {
	return parseEnum(s, "algorithm", AlgorithmFamily, AlgorithmSpGEMM, Algorithm.String)
}

// ParseAggPolicy converts a mode string to its policy; it accepts
// exactly the String spellings.
func ParseAggPolicy(s string) (AggPolicy, error) {
	return parseEnum(s, "aggregation mode", AggAuto, AggBatch, AggPolicy.String)
}

// parseEnum returns the value in [lo, hi] that spell names s. Its
// error lists every spelling, so callers need not repeat them.
func parseEnum[T ~int](s, what string, lo, hi T, spell func(T) string) (T, error) {
	for v := lo; v <= hi; v++ {
		if spell(v) == s {
			return v, nil
		}
	}
	var want []string
	for v := lo; v < hi; v++ {
		want = append(want, spell(v))
	}
	return 0, fmt.Errorf("butterfly: invalid %s %q (want %s or %s)", what, s, strings.Join(want, ", "), spell(hi))
}

// Arena is a reusable pool of counting workspaces. Passing the same
// Arena to repeated counts (CountOptions.Arena) makes the steady state
// allocation-free — the win measured in docs/PERFORMANCE.md for
// peeling rounds and repeated-query serving. It is the counting core's
// own type; construct with NewArena. Safe for concurrent use.
type Arena = core.Arena

// NewArena returns an empty workspace pool.
func NewArena() *Arena { return core.NewArena() }

// CountOptions configures CountWith.
type CountOptions struct {
	// Algorithm selects the implementation; the zero value is the
	// paper's family.
	Algorithm Algorithm
	// Invariant picks the family member; InvariantAuto selects by the
	// paper's rule. Only meaningful with AlgorithmFamily.
	Invariant Invariant
	// Threads > 1 runs the parallel algorithm; 0 and 1 are sequential;
	// negative means GOMAXPROCS.
	Threads int
	// BlockSize > 1 runs the blocked variant exposing that many
	// vertices per iteration (AlgorithmFamily only).
	BlockSize int
	// Agg selects the wedge-aggregation kernel (AlgorithmFamily only).
	// The zero value AggAuto chooses per graph from the degree profile;
	// the fixed modes pin one kernel. Every mode returns the exact
	// count; ResolvedAgg reports the mode a count would actually run.
	Agg AggPolicy
	// Arena optionally supplies a workspace pool reused across counts;
	// nil allocates fresh scratch per run (AlgorithmFamily only). See
	// NewArena.
	Arena *Arena
	// Stage, when non-nil, receives coarse stage timings. A family
	// count reports "core.relayout" when it counts on the
	// degree-ordered twin (the build on a graph's first count, a
	// pointer load after), "core.count", and "core.agg.<mode>", the
	// same duration attributed to the aggregation mode that ran. A
	// baseline count reports "core.<algorithm>" (e.g.
	// "core.wedge-hash"). The hook never fires inside the counting
	// loops, so a nil hook is free and an installed hook costs a few
	// clock reads. The serving layer adapts this to trace spans.
	Stage func(stage string, d time.Duration)
}

// Count returns the exact number of butterflies using the
// automatically selected sequential algorithm.
func (g *Graph) Count() int64 { return core.CountAuto(g.g) }

// CountWith counts with full control over algorithm selection. It is
// equivalent to CountWithContext with context.Background().
func (g *Graph) CountWith(opts CountOptions) (int64, error) {
	return g.CountWithContext(context.Background(), opts)
}

// CountWithContext is CountWith with cooperative cancellation: when
// ctx is cancelled (deadline, timeout or explicit cancel) the call
// returns promptly with ctx.Err() and a zero count.
//
// For AlgorithmFamily the cancellation flag is polled inside the core
// counting loops — between exposed vertices sequentially, between
// schedule units in parallel — so the workers themselves stop within a
// bounded slice of work and no goroutine outlives the call. For the
// baseline algorithms (which have no checkpoints in their inner loops)
// the count runs in a helper goroutine that is abandoned on
// cancellation: the call still returns promptly, but the goroutine
// finishes its count in the background and discards the result.
func (g *Graph) CountWithContext(ctx context.Context, opts CountOptions) (int64, error) {
	if g == nil || g.g == nil {
		return 0, errNilGraph
	}
	if !opts.Invariant.Valid() {
		return 0, fmt.Errorf("butterfly: invalid invariant %v", opts.Invariant)
	}
	if opts.BlockSize < 0 {
		return 0, fmt.Errorf("butterfly: negative block size %d", opts.BlockSize)
	}
	if !opts.Agg.Valid() {
		return 0, fmt.Errorf("butterfly: invalid aggregation mode %v", opts.Agg)
	}
	if opts.Agg != AggAuto && opts.Algorithm != AlgorithmFamily {
		return 0, fmt.Errorf("butterfly: Agg is only meaningful with AlgorithmFamily, got %v with %v", opts.Agg, opts.Algorithm)
	}
	threads := opts.Threads
	if threads < 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	switch opts.Algorithm {
	case AlgorithmFamily:
		return core.CountContext(ctx, g.g, core.Options{
			Invariant: opts.Invariant,
			Threads:   threads,
			BlockSize: opts.BlockSize,
			Agg:       opts.Agg,
			Arena:     opts.Arena,
			Stage:     opts.Stage,
		})
	case AlgorithmWedgeHash, AlgorithmVertexPriority, AlgorithmSortAggregate, AlgorithmSpGEMM:
		if opts.Invariant != InvariantAuto {
			return 0, fmt.Errorf("butterfly: Invariant is only meaningful with AlgorithmFamily, got %v with %v", opts.Invariant, opts.Algorithm)
		}
		run := func() int64 {
			var t0 time.Time
			if opts.Stage != nil {
				t0 = time.Now()
			}
			var c int64
			switch opts.Algorithm {
			case AlgorithmWedgeHash:
				c = baseline.CountWedgeHash(g.g)
			case AlgorithmVertexPriority:
				c = core.CountVertexPriority(g.g, threads, opts.Arena)
			case AlgorithmSortAggregate:
				c = baseline.CountSortAggregate(g.g, threads)
			default:
				c = core.CountSpGEMMParallel(g.g, threads)
			}
			if opts.Stage != nil {
				opts.Stage("core."+opts.Algorithm.String(), time.Since(t0))
			}
			return c
		}
		if ctx.Done() == nil {
			return run(), nil
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		done := make(chan int64, 1)
		go func() { done <- run() }()
		select {
		case c := <-done:
			return c, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	default:
		return 0, fmt.Errorf("butterfly: invalid algorithm %v", opts.Algorithm)
	}
}

// ResolvedAgg reports the concrete aggregation mode a family count with
// opts would run — never AggAuto. Callers that report the mode used
// (bfc -json, the serving layer, bfbench) call this alongside
// CountWith; the resolution reads only the graph's cached degree
// profile, so it is cheap and deterministic. For non-family algorithms
// (which have their own fixed aggregation) opts.Agg is returned
// unchanged.
func (g *Graph) ResolvedAgg(opts CountOptions) AggPolicy {
	if g == nil || g.g == nil || !opts.Agg.Valid() || opts.Algorithm != AlgorithmFamily {
		return opts.Agg
	}
	return core.ResolveAgg(g.g, core.Options{
		Invariant: opts.Invariant,
		Threads:   opts.Threads,
		BlockSize: opts.BlockSize,
		Agg:       opts.Agg,
	})
}

// VertexButterflies returns, for every vertex of the chosen side, the
// number of butterflies it participates in. The vector sums to twice
// the total count.
func (g *Graph) VertexButterflies(side Side) ([]int64, error) {
	if err := checkSide(side); err != nil {
		return nil, err
	}
	n := g.g.NumV1()
	if side == V2 {
		n = g.g.NumV2()
	}
	out := make([]int64, n)
	core.VertexButterfliesMaskedInto(out, g.g, side, nil, 1, nil)
	return out, nil
}

// EdgeCount pairs an edge with a butterfly count (its support or wing
// number depending on the producing call).
type EdgeCount struct {
	U, V  int
	Count int64
}

// EdgeSupports returns the butterfly support of every edge — the
// number of butterflies containing it (the matrix S_w of the paper's
// equation (25)). The supports sum to four times the total count.
func (g *Graph) EdgeSupports() []EdgeCount {
	s := core.EdgeSupportInto(nil, g.g, 1, nil)
	out := make([]EdgeCount, 0, s.NNZ())
	for u := 0; u < s.R; u++ {
		row := s.Row(u)
		vals := s.RowVals(u)
		for k, v := range row {
			out = append(out, EdgeCount{U: u, V: int(v), Count: vals[k]})
		}
	}
	return out
}

// Wedges returns the wedge totals of equation (6) for both
// orientations: wedges with endpoints in V1, and with endpoints in V2.
func (g *Graph) Wedges() (endpointsV1, endpointsV2 int64) {
	return core.WedgeCount(g.g)
}

// ClusteringCoefficient returns the bipartite clustering coefficient:
// 4·ΞG / caterpillars (length-3 paths); 1 on complete bipartite
// graphs, 0 on butterfly-free graphs.
func (g *Graph) ClusteringCoefficient() float64 {
	return core.ClusteringCoefficient(g.g)
}

// Butterfly is one enumerated 2×2 biclique: U1 < U2 in V1 and W1 < W2
// in V2, all four edges present.
type Butterfly struct {
	U1, U2 int // V1 vertices
	W1, W2 int // V2 vertices
}

// Butterflies calls yield for every butterfly in lexicographic order,
// stopping early if yield returns false. Enumeration is Θ(output), so
// use Count for totals.
func (g *Graph) Butterflies(yield func(Butterfly) bool) {
	baseline.ListButterflies(g.g, func(b baseline.Butterfly) bool {
		return yield(Butterfly{U1: int(b.U1), U2: int(b.U2), W1: int(b.W1), W2: int(b.W2)})
	})
}

// EstimateStrategy selects a sampling estimator. It is the estimation
// tier's own type; String gives "vertices", "edges" or "sparsify".
type EstimateStrategy = estimate.Strategy

const (
	// SampleVertices estimates from uniformly sampled V1 vertices.
	SampleVertices = estimate.StrategyVertices
	// SampleEdges estimates from uniformly sampled edges; usually
	// lower-variance on skewed graphs.
	SampleEdges = estimate.StrategyEdges
	// SampleSparsify keeps each edge with probability P, counts the
	// sparsified graph exactly and scales by 1/P⁴ (a butterfly
	// survives iff all four edges do).
	SampleSparsify = estimate.StrategySparsify
)

// ParseEstimateStrategy converts a strategy name to its strategy; it
// accepts exactly the String spellings.
func ParseEstimateStrategy(s string) (EstimateStrategy, error) {
	return parseEnum(s, "estimate strategy", SampleVertices, SampleSparsify, EstimateStrategy.String)
}

// EstimateOptions configures EstimateCount and EstimateWithCI; it is
// the estimation tier's own Options. Samples fixes the draw count for
// SampleVertices/SampleEdges: EstimateCount requires it positive, and
// EstimateWithCI also accepts 0, which enables the adaptive stopping
// rule (draw until the 95% CI half-width falls below TargetRelErr ×
// estimate, 5% when 0, bounded by MaxSamples, 65536 when 0). P is
// SampleSparsify's keep-probability, in (0, 1]. Seed makes every
// estimator deterministic.
type EstimateOptions = estimate.Options

// EstimateResult is a point estimate with error bars, the estimation
// tier's own Result. StdErr is the standard error of the estimator
// (zero when it cannot be measured: fewer than two samples, or the
// sparsify strategy, which reports no error bars); CI95 is its 1.96×
// half-width. Samples is the number of draws actually taken — under
// the adaptive rule, where the loop stopped.
type EstimateResult = estimate.Result

// EstimateCount approximates the butterfly count with an unbiased
// sampling estimator (Sanei-Mehri et al., KDD'18 style). For error
// bars and adaptive sample sizing use EstimateWithCI.
func (g *Graph) EstimateCount(opts EstimateOptions) (float64, error) {
	if (opts.Strategy == SampleVertices || opts.Strategy == SampleEdges) && opts.Samples <= 0 {
		return 0, fmt.Errorf("butterfly: Samples must be positive, got %d", opts.Samples)
	}
	res, err := g.EstimateWithCI(opts)
	return res.Estimate, err
}

// EstimateWithCI approximates the butterfly count and reports error
// bars. For SampleVertices/SampleEdges with Samples == 0 the sample
// size is chosen adaptively: draws accumulate in batches until the 95%
// confidence half-width falls below TargetRelErr × estimate (bounded
// by MaxSamples). SampleSparsify runs one exact count of a sparsified
// graph and reports no error bars.
func (g *Graph) EstimateWithCI(opts EstimateOptions) (EstimateResult, error) {
	if g == nil || g.g == nil {
		return EstimateResult{}, errNilGraph
	}
	res, err := estimate.Sample(g.g, opts)
	if err != nil {
		return EstimateResult{}, fmt.Errorf("butterfly: %w", err)
	}
	return res, nil
}

// Verify cross-checks the whole algorithm family plus three independent
// baseline counters on g, returning an error naming the first
// disagreement. Intended for acceptance testing on new datasets; it
// runs several full counts.
func (g *Graph) Verify() error { return baseline.VerifyAll(g.g) }
