package butterfly

// Benchmarks regenerating the paper's evaluation (one per table/figure;
// see DESIGN.md §5 and EXPERIMENTS.md for paper-vs-measured shapes):
//
//	BenchmarkFig9Count            — Fig 9's ΞG column (auto algorithm)
//	BenchmarkFig10                — Fig 10: sequential, Inv1–8 × datasets
//	BenchmarkFig11                — Fig 11: 6 threads, Inv1–8 × datasets
//	BenchmarkPartitionSideSweep   — claim C1 (partition the smaller side)
//	BenchmarkSparsitySweep        — claim C2 (sparser graphs are faster)
//	BenchmarkLookAheadAblation    — claim C3 (look-ahead members win)
//	BenchmarkBlockedAblation      — blocked vs unblocked variants
//	BenchmarkDegreeOrderAblation  — future-work degree ordering
//	BenchmarkBaselines            — family vs independent counters
//	BenchmarkKTip / BenchmarkKWing / Benchmark*Decomposition — Section IV
//
// `go test -bench` uses dataset stand-ins scaled down by
// BFLY_BENCH_SCALE (default 10) so the suite stays minutes-scale; the
// full-size tables that mirror the paper's absolute layout come from
// `go run ./cmd/bfbench -table all`.

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
)

// benchScale returns the dataset shrink factor for benchmarks.
func benchScale() int {
	if s := os.Getenv("BFLY_BENCH_SCALE"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 1 {
			return v
		}
	}
	return 10
}

var (
	benchGraphMu sync.Mutex
	benchGraphs  = map[string]*Graph{}
)

func benchDataset(b *testing.B, name string) *Graph {
	b.Helper()
	key := fmt.Sprintf("%s@%d", name, benchScale())
	benchGraphMu.Lock()
	defer benchGraphMu.Unlock()
	if g, ok := benchGraphs[key]; ok {
		return g
	}
	g, err := GeneratePaperDataset(name, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	benchGraphs[key] = g
	return g
}

func benchSynthetic(b *testing.B, key string, gen func() (*Graph, error)) *Graph {
	b.Helper()
	benchGraphMu.Lock()
	defer benchGraphMu.Unlock()
	if g, ok := benchGraphs[key]; ok {
		return g
	}
	g, err := gen()
	if err != nil {
		b.Fatal(err)
	}
	benchGraphs[key] = g
	return g
}

// sink defeats dead-code elimination.
var sink int64

// BenchmarkFig9Count regenerates the butterfly-count column of Fig 9.
func BenchmarkFig9Count(b *testing.B) {
	for _, name := range PaperDatasets() {
		b.Run(name, func(b *testing.B) {
			g := benchDataset(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = g.Count()
			}
			b.ReportMetric(float64(sink), "butterflies")
		})
	}
}

// BenchmarkFig10 regenerates Fig 10: sequential timings of all eight
// invariants across the five datasets.
func BenchmarkFig10(b *testing.B) {
	for _, name := range PaperDatasets() {
		for inv := Invariant1; inv <= Invariant8; inv++ {
			b.Run(fmt.Sprintf("%s/%v", name, inv), func(b *testing.B) {
				g := benchDataset(b, name)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v, err := g.CountWith(CountOptions{Invariant: inv})
					if err != nil {
						b.Fatal(err)
					}
					sink = v
				}
			})
		}
	}
}

// BenchmarkFig11 regenerates Fig 11: the same grid with 6 threads,
// matching the paper's 6-core machine.
func BenchmarkFig11(b *testing.B) {
	const threads = 6
	for _, name := range PaperDatasets() {
		for inv := Invariant1; inv <= Invariant8; inv++ {
			b.Run(fmt.Sprintf("%s/%v", name, inv), func(b *testing.B) {
				g := benchDataset(b, name)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v, err := g.CountWith(CountOptions{Invariant: inv, Threads: threads})
					if err != nil {
						b.Fatal(err)
					}
					sink = v
				}
			})
		}
	}
}

// BenchmarkPartitionSideSweep exercises claim C1: with the vertex
// budget fixed, the winning family flips as the smaller side flips.
// Compare Family14 vs Family58 at each ratio.
func BenchmarkPartitionSideSweep(b *testing.B) {
	const budget, edges = 40000, 120000
	for _, ratio := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		m := int(float64(budget) * ratio)
		n := budget - m
		key := fmt.Sprintf("partition@%f", ratio)
		for _, fam := range []struct {
			label string
			inv   Invariant
		}{{"Family14", Invariant2}, {"Family58", Invariant7}} {
			b.Run(fmt.Sprintf("V1=%d_V2=%d/%s", m, n, fam.label), func(b *testing.B) {
				g := benchSynthetic(b, key, func() (*Graph, error) {
					return GeneratePowerLaw(m, n, edges, 0.7, 0.7, 31)
				})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v, err := g.CountWith(CountOptions{Invariant: fam.inv})
					if err != nil {
						b.Fatal(err)
					}
					sink = v
				}
			})
		}
	}
}

// BenchmarkSparsitySweep exercises claim C2: same vertex sets, rising
// edge counts (the controlled form of the GitHub-vs-Producers
// comparison).
func BenchmarkSparsitySweep(b *testing.B) {
	const m, n = 6000, 12000
	for _, e := range []int64{5000, 20000, 44000, 80000} {
		b.Run(fmt.Sprintf("edges=%d", e), func(b *testing.B) {
			g := benchSynthetic(b, fmt.Sprintf("sparsity@%d", e), func() (*Graph, error) {
				return GeneratePowerLaw(m, n, e, 0.7, 0.7, 32)
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = g.Count()
			}
		})
	}
}

// BenchmarkLookAheadAblation exercises claim C3 on the most wedge-heavy
// stand-in: eager vs look-ahead member of each family.
func BenchmarkLookAheadAblation(b *testing.B) {
	cases := []struct {
		label string
		inv   Invariant
	}{
		{"cols-eager-Inv1", Invariant1},
		{"cols-ahead-Inv2", Invariant2},
		{"rows-eager-Inv8", Invariant8},
		{"rows-ahead-Inv7", Invariant7},
	}
	for _, c := range cases {
		b.Run(c.label, func(b *testing.B) {
			g := benchDataset(b, "github")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := g.CountWith(CountOptions{Invariant: c.inv})
				if err != nil {
					b.Fatal(err)
				}
				sink = v
			}
		})
	}
}

// BenchmarkBlockedAblation sweeps the blocked variant's block size.
func BenchmarkBlockedAblation(b *testing.B) {
	for _, block := range []int{1, 16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("block=%d", block), func(b *testing.B) {
			g := benchDataset(b, "occupations")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := g.CountWith(CountOptions{BlockSize: block})
				if err != nil {
					b.Fatal(err)
				}
				sink = v
			}
		})
	}
}

// BenchmarkDegreeOrderAblation measures the future-work degree-order
// optimization (counting only; relabeling excluded).
func BenchmarkDegreeOrderAblation(b *testing.B) {
	for _, o := range []struct {
		label string
		order Order
	}{{"natural", OrderNatural}, {"degree-asc", OrderDegreeAsc}, {"degree-desc", OrderDegreeDesc}} {
		b.Run(o.label, func(b *testing.B) {
			g := benchDataset(b, "github")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := g.CountWith(CountOptions{Order: o.order})
				if err != nil {
					b.Fatal(err)
				}
				sink = v
			}
		})
	}
}

// BenchmarkBaselines compares the family against the independent
// counters on one dataset.
func BenchmarkBaselines(b *testing.B) {
	g := benchDataset(b, "arxiv-cond-mat")
	b.Run("family-auto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = g.Count()
		}
	})
	b.Run("estimate-edges-1k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, err := g.EstimateCount(EstimateOptions{Strategy: SampleEdges, Samples: 1000, Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			sink = int64(v)
		}
	})
	b.Run("verify-all", func(b *testing.B) {
		small := benchSynthetic(b, "verify-small", func() (*Graph, error) {
			return GeneratePowerLaw(2000, 1500, 8000, 0.7, 0.7, 33)
		})
		for i := 0; i < b.N; i++ {
			if err := small.Verify(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKTip measures the paper's iterative k-tip extraction and
// the Fig 8 look-ahead variant.
func BenchmarkKTip(b *testing.B) {
	g := benchDataset(b, "arxiv-cond-mat")
	for _, variant := range []string{"iterative", "look-ahead"} {
		b.Run(variant, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var h *Graph
				var err error
				if variant == "iterative" {
					h, err = g.KTip(2, V1)
				} else {
					h, err = g.KTipLookAhead(2, V1)
				}
				if err != nil {
					b.Fatal(err)
				}
				sink = h.NumEdges()
			}
		})
	}
}

// BenchmarkKWing measures iterative k-wing extraction.
func BenchmarkKWing(b *testing.B) {
	g := benchDataset(b, "arxiv-cond-mat")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := g.KWing(2)
		if err != nil {
			b.Fatal(err)
		}
		sink = h.NumEdges()
	}
}

// peelEngineCases are the engine × thread configurations the
// decomposition benchmarks sweep: the incremental delta engine against
// the round-synchronous recount oracle, sequential and parallel.
var peelEngineCases = []struct {
	name string
	opts PeelOptions
}{
	{"delta-t1", PeelOptions{Engine: PeelDelta, Threads: 1}},
	{"delta-t6", PeelOptions{Engine: PeelDelta, Threads: 6}},
	{"recount-t1", PeelOptions{Engine: PeelRecount, Threads: 1}},
	{"recount-t6", PeelOptions{Engine: PeelRecount, Threads: 6}},
}

// BenchmarkTipDecomposition measures the full peeling order on both
// engines. The skewed power-law
// graph gives a deep peeling hierarchy, which is where the engines
// diverge: the recount engine pays a full support sweep per level
// while the delta engine only pays for the butterflies destroyed.
func BenchmarkTipDecomposition(b *testing.B) {
	g := benchSynthetic(b, "tip-decomp", func() (*Graph, error) {
		return GeneratePowerLaw(1500, 1200, 6000, 0.7, 0.7, 33)
	})
	for _, c := range peelEngineCases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tn, _, err := g.TipNumbersWith(V1, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				sink = int64(len(tn))
			}
		})
	}
}

// BenchmarkWingDecomposition measures the full edge peeling order on
// both engines.
func BenchmarkWingDecomposition(b *testing.B) {
	g := benchSynthetic(b, "wing-decomp", func() (*Graph, error) {
		return GeneratePowerLaw(1500, 1200, 6000, 0.7, 0.7, 34)
	})
	for _, c := range peelEngineCases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wn, _ := g.WingNumbersWith(c.opts)
				sink = int64(len(wn))
			}
		})
	}
}

// BenchmarkVertexAndEdgeCounts measures the per-vertex and per-edge
// kernels that peeling is built from.
func BenchmarkVertexAndEdgeCounts(b *testing.B) {
	g := benchDataset(b, "producers")
	b.Run("vertex-butterflies", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := g.VertexButterflies(V1)
			if err != nil {
				b.Fatal(err)
			}
			sink = int64(len(s))
		}
	})
	b.Run("edge-supports", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = int64(len(g.EdgeSupports()))
		}
	})
}

// BenchmarkDynamicCounter measures incremental update throughput on a
// seeded stand-in (the streaming extension; see EXPERIMENTS.md). An
// insert of a random pair and a delete of a random present edge
// alternate, so every timed delete removes an edge.
func BenchmarkDynamicCounter(b *testing.B) {
	g := benchDataset(b, "arxiv-cond-mat")
	d := NewDynamicCounterFromGraph(g)
	m, n := g.NumV1(), g.NumV2()
	live := g.Edges()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			u, v := rng.Intn(m), rng.Intn(n)
			added, _, err := d.InsertEdge(u, v)
			if err != nil {
				b.Fatal(err)
			}
			if added {
				live = append(live, [2]int{u, v})
			}
		} else {
			j := rng.Intn(len(live))
			if _, _, err := d.DeleteEdge(live[j][0], live[j][1]); err != nil {
				b.Fatal(err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	b.StopTimer()
	sink = d.Count()
}

// BenchmarkAlgorithmComparison compares every public counting
// algorithm on one dataset stand-in.
func BenchmarkAlgorithmComparison(b *testing.B) {
	algs := []Algorithm{AlgorithmFamily, AlgorithmWedgeHash,
		AlgorithmVertexPriority, AlgorithmSortAggregate, AlgorithmSpGEMM}
	for _, alg := range algs {
		b.Run(alg.String(), func(b *testing.B) {
			g := benchDataset(b, "arxiv-cond-mat")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := g.CountWith(CountOptions{Algorithm: alg})
				if err != nil {
					b.Fatal(err)
				}
				sink = v
			}
		})
	}
}

// BenchmarkEstimators compares approximation strategies at fixed work.
func BenchmarkEstimators(b *testing.B) {
	g := benchDataset(b, "occupations")
	cases := []struct {
		name string
		opts EstimateOptions
	}{
		{"vertices-2k", EstimateOptions{Strategy: SampleVertices, Samples: 2000, Seed: 3}},
		{"edges-2k", EstimateOptions{Strategy: SampleEdges, Samples: 2000, Seed: 3}},
		{"sparsify-p25", EstimateOptions{Strategy: SampleSparsify, P: 0.25, Seed: 3}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, err := g.EstimateCount(c.opts)
				if err != nil {
					b.Fatal(err)
				}
				sink = int64(v)
			}
		})
	}
}
