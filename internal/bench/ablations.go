package bench

import (
	"fmt"
	"math"
	"math/rand"

	"butterfly/internal/baseline"
	"butterfly/internal/core"
	"butterfly/internal/dynamic"
	"butterfly/internal/estimate"
	"butterfly/internal/gen"
	"butterfly/internal/graph"
	"butterfly/internal/peel"
)

// PartitionPoint is one sample of the partition-side sweep (claim C1):
// the same graph is counted with both families as the |V1|:|V2| ratio
// varies; the winning family should flip when the smaller side flips.
type PartitionPoint struct {
	V1, V2      int
	Edges       int64
	SecFamily14 float64 // best sequential time among invariants 1–4
	SecFamily58 float64 // best sequential time among invariants 5–8
}

// PartitionSweep generates graphs with a fixed vertex budget and edge
// count but varying side ratios, timing both families on each.
func PartitionSweep(vertexBudget int, edges int64, ratios []float64, seed int64) []PartitionPoint {
	out := make([]PartitionPoint, 0, len(ratios))
	for i, r := range ratios {
		m := int(float64(vertexBudget) * r)
		n := vertexBudget - m
		if m < 2 || n < 2 {
			continue
		}
		e := edges
		if limit := int64(m) * int64(n); e > limit {
			e = limit
		}
		g := gen.PowerLawBipartite(m, n, e, 0.7, 0.7, seed+int64(i))
		p := PartitionPoint{V1: m, V2: n, Edges: g.NumEdges()}
		p.SecFamily14 = bestTime(g, []core.Invariant{core.Inv1, core.Inv2, core.Inv3, core.Inv4})
		p.SecFamily58 = bestTime(g, []core.Invariant{core.Inv5, core.Inv6, core.Inv7, core.Inv8})
		out = append(out, p)
	}
	return out
}

func bestTime(g *graph.Bipartite, invs []core.Invariant) float64 {
	best := -1.0
	for _, inv := range invs {
		d, _ := TimeIt(func() int64 { return core.Count(g, inv) })
		if best < 0 || d.Seconds() < best {
			best = d.Seconds()
		}
	}
	return best
}

// SparsityPoint is one sample of the edge-sparsity sweep (claim C2):
// same vertex sets, growing edge counts.
type SparsityPoint struct {
	Edges   int64
	Density float64
	Seconds float64 // auto-selected invariant, sequential
	Count   int64
}

// SparsitySweep fixes |V1| and |V2| and sweeps the edge count,
// reproducing the GitHub-vs-Producers comparison in controlled form.
func SparsitySweep(m, n int, edgeCounts []int64, seed int64) []SparsityPoint {
	out := make([]SparsityPoint, 0, len(edgeCounts))
	for i, e := range edgeCounts {
		if limit := int64(m) * int64(n); e > limit {
			e = limit
		}
		g := gen.PowerLawBipartite(m, n, e, 0.7, 0.7, seed+int64(i))
		d, c := TimeIt(func() int64 { return core.CountAuto(g) })
		out = append(out, SparsityPoint{
			Edges: g.NumEdges(), Density: g.Density(), Seconds: d.Seconds(), Count: c,
		})
	}
	return out
}

// LookAheadRow compares the eager and look-ahead members of each
// family on one dataset (claim C3).
type LookAheadRow struct {
	Dataset                string
	EagerCols, AheadCols   float64 // Inv1 vs Inv2
	EagerRows, AheadRows   float64 // Inv8 vs Inv7
	ColsSpeedup, RowsSpeed float64
}

// LookAheadAblation times eager-vs-look-ahead pairs per dataset.
func LookAheadAblation(names []string, dataDir string, scale int) ([]LookAheadRow, error) {
	rows := make([]LookAheadRow, 0, len(names))
	for _, name := range names {
		g, err := LoadDataset(name, dataDir, scale)
		if err != nil {
			return nil, err
		}
		r := LookAheadRow{Dataset: name}
		d, _ := TimeIt(func() int64 { return core.Count(g, core.Inv1) })
		r.EagerCols = d.Seconds()
		d, _ = TimeIt(func() int64 { return core.Count(g, core.Inv2) })
		r.AheadCols = d.Seconds()
		d, _ = TimeIt(func() int64 { return core.Count(g, core.Inv8) })
		r.EagerRows = d.Seconds()
		d, _ = TimeIt(func() int64 { return core.Count(g, core.Inv7) })
		r.AheadRows = d.Seconds()
		if r.AheadCols > 0 {
			r.ColsSpeedup = r.EagerCols / r.AheadCols
		}
		if r.AheadRows > 0 {
			r.RowsSpeed = r.EagerRows / r.AheadRows
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// BlockedPoint is one sample of the blocked-variant ablation.
type BlockedPoint struct {
	BlockSize int // 1 = unblocked
	Seconds   float64
}

// BlockedAblation sweeps block sizes on one dataset with the
// auto-selected invariant.
func BlockedAblation(g *graph.Bipartite, blockSizes []int) []BlockedPoint {
	inv := core.AutoInvariant(g)
	out := make([]BlockedPoint, 0, len(blockSizes))
	for _, b := range blockSizes {
		d, _ := TimeIt(func() int64 {
			return core.CountWith(g, core.Options{Invariant: inv, BlockSize: b})
		})
		out = append(out, BlockedPoint{BlockSize: b, Seconds: d.Seconds()})
	}
	return out
}

// OrderPoint is one sample of the degree-ordering ablation (the
// paper's future-work optimization).
type OrderPoint struct {
	Order   graph.Order
	Seconds float64
}

// OrderAblation compares vertex orderings on one dataset. Relabeling
// time is excluded — the claim concerns counting-loop locality.
func OrderAblation(g *graph.Bipartite) []OrderPoint {
	inv := core.AutoInvariant(g)
	out := make([]OrderPoint, 0, 3)
	for _, o := range []graph.Order{graph.OrderNatural, graph.OrderDegreeAsc, graph.OrderDegreeDesc} {
		h, _, _ := g.Relabel(o)
		d, _ := TimeIt(func() int64 { return core.Count(h, inv) })
		out = append(out, OrderPoint{Order: o, Seconds: d.Seconds()})
	}
	return out
}

// BaselinePoint compares a baseline counter against the family's best.
type BaselinePoint struct {
	Name    string
	Seconds float64
	Count   int64
}

// BaselineComparison times the family (auto), the wedge-hash counter,
// the vertex-priority counter, and the sparse-algebra counter on g.
func BaselineComparison(g *graph.Bipartite) []BaselinePoint {
	out := make([]BaselinePoint, 0, 4)
	d, c := TimeIt(func() int64 { return core.CountAuto(g) })
	out = append(out, BaselinePoint{Name: "family-auto", Seconds: d.Seconds(), Count: c})
	d, c = TimeIt(func() int64 { return baseline.CountWedgeHash(g) })
	out = append(out, BaselinePoint{Name: "wedge-hash", Seconds: d.Seconds(), Count: c})
	d, c = TimeIt(func() int64 { return baseline.CountVertexPriority(g) })
	out = append(out, BaselinePoint{Name: "vertex-priority", Seconds: d.Seconds(), Count: c})
	d, c = TimeIt(func() int64 { return baseline.CountSortAggregate(g, 1) })
	out = append(out, BaselinePoint{Name: "sort-aggregate", Seconds: d.Seconds(), Count: c})
	d, c = TimeIt(func() int64 { return core.CountSpGEMM(g) })
	out = append(out, BaselinePoint{Name: "spgemm", Seconds: d.Seconds(), Count: c})
	d, c = TimeIt(func() int64 { return core.CountBlockedAlgebraic(g, 256) })
	out = append(out, BaselinePoint{Name: "panel-algebra(256)", Seconds: d.Seconds(), Count: c})
	return out
}

// DynamicPoint reports incremental-maintenance throughput.
type DynamicPoint struct {
	Name      string
	Updates   int
	Seconds   float64
	PerSecond float64
}

// DynamicThroughput seeds a dynamic counter with g and applies
// `updates` alternating updates: an insertion of a random pair, then a
// deletion of a random present edge, so every timed delete removes an
// edge. It reports the sustained update rate. The final count is
// audited against a static recount; a mismatch panics.
func DynamicThroughput(g *graph.Bipartite, updates int, seed int64) DynamicPoint {
	c := dynamic.FromGraph(g)
	rng := rand.New(rand.NewSource(seed))
	m, n := g.NumV1(), g.NumV2()
	live := g.Edges()
	d, _ := TimeIt(func() int64 {
		for i := 0; i < updates; i++ {
			if i%2 == 0 {
				u, v := rng.Intn(m), rng.Intn(n)
				if added, _ := c.InsertEdge(u, v); added {
					live = append(live, graph.Edge{U: int32(u), V: int32(v)})
				}
			} else if len(live) > 0 {
				j := rng.Intn(len(live))
				c.DeleteEdge(int(live[j].U), int(live[j].V))
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		return c.Count()
	})
	if c.Count() != core.CountAuto(c.Snapshot()) {
		panic("bench: dynamic counter diverged from static recount")
	}
	return DynamicPoint{
		Name: "insert/delete mix", Updates: updates,
		Seconds: d.Seconds(), PerSecond: float64(updates) / d.Seconds(),
	}
}

// BalanceRow reports the simulated parallel work balance for one
// dataset (the machine-independent half of the Fig 11 claim; see
// EXPERIMENTS.md).
type BalanceRow struct {
	Dataset   string
	Invariant core.Invariant
	Threads   int
	Imbalance float64 // max/mean worker load; 1.0 = perfect
	PerWorker []int64
}

// BalanceTable simulates the parallel schedule of the auto-selected
// invariant on each dataset and reports per-worker wedge-step loads.
func BalanceTable(names []string, dataDir string, scale, threads int) ([]BalanceRow, error) {
	rows := make([]BalanceRow, 0, len(names))
	for _, name := range names {
		g, err := LoadDataset(name, dataDir, scale)
		if err != nil {
			return nil, err
		}
		inv := core.AutoInvariant(g)
		loads := core.WorkBalance(g, inv, threads)
		rows = append(rows, BalanceRow{
			Dataset: name, Invariant: inv, Threads: threads,
			Imbalance: core.ImbalanceFactor(loads), PerWorker: loads,
		})
	}
	return rows, nil
}

// PeelingPoint is one timed peeling variant.
type PeelingPoint struct {
	Name    string
	Seconds float64
}

// PeelingComparison times the k-tip variants (recount engine and the
// Fig 8 look-ahead), the tip decomposition on both engines and the
// recount k-wing on g at threshold k, with the given worker count for
// the engines.
func PeelingComparison(g *graph.Bipartite, k int64, threads int) []PeelingPoint {
	out := make([]PeelingPoint, 0, 5)
	recount := peel.Options{Engine: peel.EngineRecount, Threads: threads}
	delta := peel.Options{Engine: peel.EngineDelta, Threads: threads}
	add := func(name string, fn func()) {
		d, _ := TimeIt(func() int64 { fn(); return 0 })
		out = append(out, PeelingPoint{Name: name, Seconds: d.Seconds()})
	}
	add("ktip-recount", func() { peel.KTipWith(g, k, core.SideV1, recount) })
	add("ktip-lookahead", func() { peel.KTipLookAhead(g, k, core.SideV1) })
	add("tip-numbers-delta", func() { peel.TipNumbersWith(g, core.SideV1, delta) })
	add("tip-numbers-recount", func() { peel.TipNumbersWith(g, core.SideV1, recount) })
	add("kwing-recount", func() { peel.KWingWith(g, k, recount) })
	return out
}

// DistRow characterizes one dataset's degree structure — the inputs
// that drive every performance effect in the evaluation.
type DistRow struct {
	Dataset            string
	MaxDegV1, MaxDegV2 int
	GiniV1, GiniV2     float64
	WedgesV1, WedgesV2 int64
}

// DistTable computes the characterization for the named datasets.
func DistTable(names []string, dataDir string, scale int) ([]DistRow, error) {
	rows := make([]DistRow, 0, len(names))
	for _, name := range names {
		g, err := LoadDataset(name, dataDir, scale)
		if err != nil {
			return nil, err
		}
		s := graph.ComputeStats(g)
		rows = append(rows, DistRow{
			Dataset:  name,
			MaxDegV1: s.MaxDegV1, MaxDegV2: s.MaxDegV2,
			GiniV1: graph.DegreeGini(g, true), GiniV2: graph.DegreeGini(g, false),
			WedgesV1: s.WedgesV1, WedgesV2: s.WedgesV2,
		})
	}
	return rows, nil
}

// EstimatorPoint is one sample of the estimator accuracy/time sweep.
type EstimatorPoint struct {
	Name     string
	Seconds  float64
	Estimate float64
	RelErr   float64
}

// EstimatorComparison measures each approximate counter against the
// exact count on g, at the given sampling budgets.
func EstimatorComparison(g *graph.Bipartite, samples int, sparsifyP float64, seed int64) []EstimatorPoint {
	exact := core.CountAuto(g)
	out := make([]EstimatorPoint, 0, 4)
	add := func(name string, fn func() float64) {
		var est float64
		d, _ := TimeIt(func() int64 { est = fn(); return 0 })
		out = append(out, EstimatorPoint{
			Name: name, Seconds: d.Seconds(), Estimate: est,
			RelErr: relativeError(est, exact),
		})
	}
	add("exact (reference)", func() float64 { return float64(core.CountAuto(g)) })
	sample := func(o estimate.Options) func() float64 {
		o.Seed = seed
		return func() float64 {
			res, err := estimate.Sample(g, o)
			if err != nil {
				panic(err)
			}
			return res.Estimate
		}
	}
	add(fmt.Sprintf("vertex-sampling (%d)", samples), sample(estimate.Options{Strategy: estimate.StrategyVertices, Samples: samples}))
	add(fmt.Sprintf("edge-sampling (%d)", samples), sample(estimate.Options{Strategy: estimate.StrategyEdges, Samples: samples}))
	add(fmt.Sprintf("sparsify (p=%.2f)", sparsifyP), sample(estimate.Options{Strategy: estimate.StrategySparsify, P: sparsifyP}))
	return out
}

// relativeError is |est − exact| / exact, or |est| when exact is 0.
func relativeError(est float64, exact int64) float64 {
	if exact == 0 {
		return math.Abs(est)
	}
	return math.Abs(est-float64(exact)) / float64(exact)
}

// SignificanceRow reports a dataset's butterfly count against its
// degree-preserving null model.
type SignificanceRow struct {
	Dataset  string
	Observed int64
	NullMean float64
	NullStd  float64
	ZScore   float64
}

// SignificanceTable draws `samples` rewired null graphs per dataset
// (swapsPerEdge·|E| swaps each) and reports z-scores.
func SignificanceTable(names []string, dataDir string, scale, samples, swapsPerEdge int, seed int64) ([]SignificanceRow, error) {
	rows := make([]SignificanceRow, 0, len(names))
	for _, name := range names {
		g, err := LoadDataset(name, dataDir, scale)
		if err != nil {
			return nil, err
		}
		observed := core.CountAuto(g)
		swaps := int(g.NumEdges()) * swapsPerEdge
		var sum, sumSq float64
		for i := 0; i < samples; i++ {
			c := float64(core.CountAuto(gen.Rewire(g, swaps, seed+int64(i)*104729)))
			sum += c
			sumSq += c * c
		}
		mean := sum / float64(samples)
		variance := (sumSq - sum*mean) / float64(samples-1)
		if variance < 0 {
			variance = 0
		}
		std := math.Sqrt(variance)
		z := 0.0
		if std > 0 {
			z = (float64(observed) - mean) / std
		}
		rows = append(rows, SignificanceRow{
			Dataset: name, Observed: observed, NullMean: mean, NullStd: std, ZScore: z,
		})
	}
	return rows, nil
}
