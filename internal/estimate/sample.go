package estimate

import (
	"fmt"
	"math"
	"math/rand"

	"butterfly/internal/core"
	"butterfly/internal/graph"
)

// Strategy selects a per-query sampling estimator for a fully
// materialized graph.
type Strategy int

const (
	// StrategyVertices estimates from uniformly sampled V1 vertices:
	// ΞG ≈ |V1| · mean(b_u) / 2 (each butterfly touches two V1
	// vertices).
	StrategyVertices Strategy = iota
	// StrategyEdges estimates from uniformly sampled edges:
	// ΞG ≈ |E| · mean(support) / 4 (each butterfly has four edges).
	// Usually lower-variance on skewed graphs because edge supports are
	// more homogeneous than vertex participations.
	StrategyEdges
	// StrategySparsify keeps each edge independently with probability
	// P, counts the sparsified graph exactly and scales by 1/P⁴ — a
	// butterfly survives iff all four of its edges do (ESpar of
	// Sanei-Mehri et al.). Unbiased; it reports no error bars.
	StrategySparsify
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyVertices:
		return "vertices"
	case StrategyEdges:
		return "edges"
	case StrategySparsify:
		return "sparsify"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Defaults for the adaptive stopping rule.
const (
	DefaultTargetRelErr = 0.05
	DefaultMinSamples   = 64
	DefaultMaxSamples   = 1 << 16
	adaptiveBatch       = 32
)

// Options configures Sample.
type Options struct {
	Strategy Strategy
	// Samples > 0 makes a sampler draw exactly that many samples (no
	// early stop); Samples == 0 enables the adaptive stopping rule.
	// Sparsify ignores it.
	Samples int
	// P is StrategySparsify's keep-probability, in (0, 1].
	P float64
	// TargetRelErr is the adaptive target: stop once the 95% CI
	// half-width falls below TargetRelErr · estimate. 0 means
	// DefaultTargetRelErr.
	TargetRelErr float64
	// MaxSamples bounds the adaptive loop, which draws at least
	// DefaultMinSamples; 0 means DefaultMaxSamples.
	MaxSamples int
	// Seed makes the estimator deterministic.
	Seed int64
}

// Result is a point estimate with error bars. StdErr is the standard
// error of the scaled estimator mean (zero when fewer than two samples
// were drawn, and for StrategySparsify); CI95 is its 1.96× half-width.
// Samples is the number of draws taken — under the adaptive rule,
// where the loop stopped.
type Result struct {
	Estimate float64
	StdErr   float64
	CI95     float64
	Samples  int
}

// Sample estimates the butterfly count of g. StrategySparsify runs one
// exact count of a sparsified copy. The samplers draw vertices or
// edges: with Options.Samples > 0 a fixed number, with Samples == 0 in
// batches until the 95% CI half-width falls below TargetRelErr ×
// estimate (bounded by DefaultMinSamples and MaxSamples). All three
// estimators are unbiased (see docs/ALGORITHMS.md for the derivation);
// both samplers share one wedge-accumulator kernel.
func Sample(g *graph.Bipartite, opts Options) (Result, error) {
	switch opts.Strategy {
	case StrategyVertices, StrategyEdges:
	case StrategySparsify:
		if opts.P <= 0 || opts.P > 1 {
			return Result{}, fmt.Errorf("estimate: P must be in (0,1], got %g", opts.P)
		}
		return Result{Estimate: sparsify(g, opts.P, opts.Seed)}, nil
	default:
		return Result{}, fmt.Errorf("estimate: invalid strategy %v", opts.Strategy)
	}
	if opts.Samples < 0 {
		return Result{}, fmt.Errorf("estimate: negative sample count %d", opts.Samples)
	}
	var scale, population float64
	if opts.Strategy == StrategyVertices {
		population = float64(g.NumV1())
		scale = population / 2
	} else {
		population = float64(g.NumEdges())
		scale = population / 4
	}
	if population == 0 {
		return Result{}, nil
	}

	target := opts.TargetRelErr
	if target <= 0 {
		target = DefaultTargetRelErr
	}
	minS, maxS := DefaultMinSamples, opts.MaxSamples
	if maxS <= 0 {
		maxS = DefaultMaxSamples
	}
	if maxS < minS {
		maxS = minS
	}
	if opts.Samples > 0 {
		minS, maxS = opts.Samples, opts.Samples
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	acc := newAccum(g)
	kernel := wedgeKernel{g: g, adj: g.Adj(), adjT: g.AdjT(), acc: acc}

	// Welford running mean/variance of the raw per-sample values.
	var k int
	var mean, m2 float64
	push := func(x float64) {
		k++
		d := x - mean
		mean += d / float64(k)
		m2 += d * (x - mean)
	}
	result := func() Result {
		res := Result{Estimate: scale * mean, Samples: k}
		if k >= 2 {
			sd := math.Sqrt(m2 / float64(k-1))
			res.StdErr = scale * sd / math.Sqrt(float64(k))
			res.CI95 = 1.96 * res.StdErr
		}
		return res
	}

	for k < maxS {
		batch := adaptiveBatch
		if k+batch > maxS {
			batch = maxS - k
		}
		for i := 0; i < batch; i++ {
			if opts.Strategy == StrategyVertices {
				push(float64(kernel.vertexSample(rng.Intn(g.NumV1()))))
			} else {
				push(float64(kernel.edgeSample(rng.Int63n(g.NumEdges()))))
			}
		}
		if k < minS {
			continue
		}
		res := result()
		if res.Estimate > 0 && res.CI95 <= target*res.Estimate {
			break
		}
		if m2 == 0 {
			// Zero sample variance: either a perfectly uniform graph or
			// an all-zero stretch. More identical samples add nothing.
			break
		}
	}
	return result(), nil
}

// wedgeKernel computes exact per-vertex butterfly participations and
// per-edge supports through one shared accumulator — the deduplicated
// core of both sampling estimators.
type wedgeKernel struct {
	g         *graph.Bipartite
	adj, adjT interface {
		Row(int) []int32
	}
	acc accum
}

// gather fills the accumulator with β_uw = |N(u) ∩ N(w)| for every V1
// vertex w ≠ u reachable through a common neighbor.
func (wk *wedgeKernel) gather(u int) {
	u32 := int32(u)
	for _, v := range wk.adj.Row(u) {
		for _, w := range wk.adjT.Row(int(v)) {
			if w != u32 {
				wk.acc.inc(w)
			}
		}
	}
}

// vertexSample returns b_u = Σ_w C(β_uw, 2), the number of butterflies
// vertex u participates in.
func (wk *wedgeKernel) vertexSample(u int) int64 {
	wk.gather(u)
	var bu int64
	wk.acc.drain(func(c int64) {
		bu += c * (c - 1) / 2
	})
	return bu
}

// edgeSample returns support(u,v) = Σ_{w∈N(v), w≠u} (β_uw − 1) for the
// edge at flat CSR position k.
func (wk *wedgeKernel) edgeSample(k int64) int64 {
	g := wk.g
	u := edgeRow(g.Adj().Ptr, k)
	v := g.Adj().Col[k]
	u32 := int32(u)
	wk.gather(u)
	var sup int64
	for _, w := range wk.adjT.Row(int(v)) {
		if w == u32 {
			continue
		}
		sup += wk.acc.get(w) - 1
	}
	wk.acc.reset()
	return sup
}

// edgeRow locates the row containing flat edge index k by binary search
// over the CSR row pointer.
func edgeRow(ptr []int64, k int64) int {
	lo, hi := 0, len(ptr)-1
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if ptr[mid] <= k {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// accum is the per-sample wedge accumulator. drain visits every nonzero
// counter and resets; get/reset serve the edge-support path, which
// needs random access after gathering.
type accum interface {
	inc(w int32)
	get(w int32) int64
	drain(f func(c int64))
	reset()
}

// newAccum picks dense vs. hash through the same degree-profile
// decision table the exact kernels use: AggHash means "huge sparse id
// space" there too.
func newAccum(g *graph.Bipartite) accum {
	if core.ResolveAgg(g, core.Options{}) == core.AggHash {
		return &hashAccum{counts: make(map[int32]int32)}
	}
	return &denseAccum{counts: make([]int32, g.NumV1()), touched: make([]int32, 0, 1024)}
}

type denseAccum struct {
	counts  []int32
	touched []int32
}

func (a *denseAccum) inc(w int32) {
	if a.counts[w] == 0 {
		a.touched = append(a.touched, w)
	}
	a.counts[w]++
}

func (a *denseAccum) get(w int32) int64 { return int64(a.counts[w]) }

func (a *denseAccum) drain(f func(c int64)) {
	for _, w := range a.touched {
		f(int64(a.counts[w]))
		a.counts[w] = 0
	}
	a.touched = a.touched[:0]
}

func (a *denseAccum) reset() {
	for _, w := range a.touched {
		a.counts[w] = 0
	}
	a.touched = a.touched[:0]
}

type hashAccum struct {
	counts map[int32]int32
}

func (a *hashAccum) inc(w int32)       { a.counts[w]++ }
func (a *hashAccum) get(w int32) int64 { return int64(a.counts[w]) }

func (a *hashAccum) drain(f func(c int64)) {
	for _, c := range a.counts {
		f(int64(c))
	}
	clear(a.counts)
}

func (a *hashAccum) reset() { clear(a.counts) }

// sparsify keeps each edge of g with probability p, drawn from a
// SplitMix64 stream seeded by seed, and returns the sparsified graph's
// exact count scaled by 1/p⁴. p == 1 is the exact count.
func sparsify(g *graph.Bipartite, p float64, seed int64) float64 {
	if p == 1 {
		return float64(core.CountVertexPriority(g, 1, nil))
	}
	rng := newSplitMix(seed)
	b := graph.NewBuilder(g.NumV1(), g.NumV2())
	for u := 0; u < g.NumV1(); u++ {
		for _, v := range g.NeighborsOfV1(u) {
			if rng.float64() < p {
				b.AddEdge(u, int(v))
			}
		}
	}
	return float64(core.CountVertexPriority(b.Build(), 1, nil)) / (p * p * p * p)
}

// splitMix is a tiny deterministic PRNG (SplitMix64) so sparsification
// does not share math/rand global state.
type splitMix struct{ s uint64 }

func newSplitMix(seed int64) *splitMix { return &splitMix{s: uint64(seed)*2654435769 + 1} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitMix) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}
