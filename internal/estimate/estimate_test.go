package estimate

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/gen"
	"butterfly/internal/graph"
)

// --- Reservoir ---

func streamOf(g *graph.Bipartite) [][2]int {
	edges := g.Edges()
	out := make([][2]int, len(edges))
	for i, e := range edges {
		out[i] = [2]int{int(e.U), int(e.V)}
	}
	return out
}

func TestReservoirExactRegime(t *testing.T) {
	g := gen.PowerLawBipartite(100, 80, 500, 0.7, 0.7, 3)
	exact := core.CountAuto(g)
	r, err := NewReservoir(100, 80, int(g.NumEdges())+10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range streamOf(g) {
		if err := r.Add(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	snap := r.Snapshot()
	if !snap.Exact {
		t.Fatalf("reservoir larger than stream should be exact")
	}
	if snap.Estimate != float64(exact) {
		t.Fatalf("exact-regime estimate %g, want %d", snap.Estimate, exact)
	}
	if snap.StdErr != 0 || snap.CI95 != 0 {
		t.Fatalf("exact-regime error bars must be zero, got %g/%g", snap.StdErr, snap.CI95)
	}
	if snap.EdgesSeen != g.NumEdges() || snap.ReservoirSize != int(g.NumEdges()) {
		t.Fatalf("snapshot bookkeeping: seen=%d size=%d want %d", snap.EdgesSeen, snap.ReservoirSize, g.NumEdges())
	}
	// The exact regime does not depend on arrival order or seed.
	back, err := NewReservoir(100, 80, int(g.NumEdges())+10, 2)
	if err != nil {
		t.Fatal(err)
	}
	stream := streamOf(g)
	for i := len(stream) - 1; i >= 0; i-- {
		if err := back.Add(stream[i][0], stream[i][1]); err != nil {
			t.Fatal(err)
		}
	}
	if got := back.Snapshot().Estimate; got != snap.Estimate {
		t.Fatalf("reversed stream estimate %g, forward %g", got, snap.Estimate)
	}
}

// TestReservoirIncrementalMatchesRecount is the differential test for
// the incremental count: after a long stream with many evictions, the
// maintained count must equal an exact recount of the reservoir
// subgraph.
func TestReservoirIncrementalMatchesRecount(t *testing.T) {
	g := gen.PowerLawBipartite(120, 90, 1500, 0.8, 0.7, 7)
	for _, capacity := range []int{4, 50, 300} {
		r, err := NewReservoir(120, 90, capacity, 42)
		if err != nil {
			t.Fatal(err)
		}
		stream := streamOf(g)
		rng := rand.New(rand.NewSource(9))
		// Include duplicate stream elements, so slots share edges.
		for i := 0; i < 3000; i++ {
			e := stream[rng.Intn(len(stream))]
			if err := r.Add(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		// Rebuild the reservoir subgraph from the edges the slots hold.
		b := graph.NewBuilder(120, 90)
		for _, e := range r.slots {
			b.AddEdge(int(e.u), int(e.v))
		}
		h := b.Build()
		want := core.CountAuto(h)
		snap := r.Snapshot()
		if snap.Butterflies != want || snap.ReservoirSize != int(h.NumEdges()) {
			t.Fatalf("cap=%d: incremental count %d over %d edges, recount %d over %d",
				capacity, snap.Butterflies, snap.ReservoirSize, want, h.NumEdges())
		}
	}
}

// TestReservoirDuplicateOutlivesFirstSlot: an edge stays in the sample
// while any slot holds it, even after the slot that first brought it
// is evicted.
func TestReservoirDuplicateOutlivesFirstSlot(t *testing.T) {
	r, err := NewReservoir(3, 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddBatch([][2]int{{0, 0}, {0, 1}, {1, 0}, {0, 0}, {2, 2}, {1, 1}, {2, 1}, {1, 2}}); err != nil {
		t.Fatal(err)
	}
	held := map[slot]bool{}
	for _, e := range r.slots {
		held[e] = true
	}
	if got := r.Snapshot().ReservoirSize; got != len(held) {
		t.Fatalf("ReservoirSize = %d, but the slots %v hold %d distinct edges", got, r.slots, len(held))
	}
	if len(held) != 4 {
		t.Fatalf("slots %v hold %d distinct edges; the stream no longer puts a duplicate's first slot out", r.slots, len(held))
	}
}

// TestReservoirUnbiased checks the estimator statistically: the mean
// over many independent seeds must land within a few standard errors of
// the exact count.
func TestReservoirUnbiased(t *testing.T) {
	g := gen.PowerLawBipartite(200, 150, 2000, 0.7, 0.7, 4)
	exact := float64(core.CountAuto(g))
	stream := streamOf(g)
	const trials = 40
	var sum float64
	covered := 0
	for seed := int64(0); seed < trials; seed++ {
		r, err := NewReservoir(200, 150, 800, seed)
		if err != nil {
			t.Fatal(err)
		}
		perm := rand.New(rand.NewSource(seed + 100)).Perm(len(stream))
		for _, i := range perm {
			if err := r.Add(stream[i][0], stream[i][1]); err != nil {
				t.Fatal(err)
			}
		}
		snap := r.Snapshot()
		sum += snap.Estimate
		if snap.StdErr <= 0 {
			t.Fatalf("seed %d: scaled regime must report positive stderr", seed)
		}
		if math.Abs(snap.Estimate-exact) <= snap.CI95 {
			covered++
		}
	}
	mean := sum / trials
	if rel := math.Abs(mean-exact) / exact; rel > 0.30 {
		t.Fatalf("mean of %d trials %.1f vs exact %.0f (rel err %.2f)", trials, mean, exact, rel)
	}
	// The binomial-approximation CI is not a guaranteed 95% interval
	// (butterfly survivals are correlated), but it should cover the
	// truth more often than not.
	if covered < trials/2 {
		t.Fatalf("CI95 covered exact only %d/%d times", covered, trials)
	}
}

func TestReservoirValidation(t *testing.T) {
	if _, err := NewReservoir(-1, 5, 10, 0); err == nil {
		t.Fatal("negative dimension must error")
	}
	if _, err := NewReservoir(5, 5, 3, 0); err == nil {
		t.Fatal("capacity below 4 must error")
	}
	r, err := NewReservoir(5, 5, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Add(5, 0); err == nil {
		t.Fatal("out-of-range edge must error")
	}
	if err := r.AddBatch([][2]int{{0, 0}, {0, 9}}); err == nil {
		t.Fatal("out-of-range batch edge must error")
	}
	if got := r.Seen(); got != 0 {
		t.Fatalf("failed adds must not advance the stream, seen=%d", got)
	}
	if got := r.Snapshot().Estimate; got != 0 {
		t.Fatalf("empty stream estimate %g, want 0", got)
	}
}

// TestReservoirConcurrent runs batched ingest against concurrent
// snapshot reads; under -race this proves the locking discipline, and
// the final snapshot must be exact and correct.
func TestReservoirConcurrent(t *testing.T) {
	g := gen.PowerLawBipartite(150, 100, 1200, 0.7, 0.7, 11)
	exact := float64(core.CountAuto(g))
	stream := streamOf(g)
	r, err := NewReservoir(150, 100, len(stream)+1, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := r.Snapshot()
				if snap.Estimate < 0 || snap.ReservoirSize > snap.Capacity {
					t.Errorf("inconsistent snapshot: %+v", snap)
					return
				}
			}
		}()
	}
	const batch = 64
	for lo := 0; lo < len(stream); lo += batch {
		hi := lo + batch
		if hi > len(stream) {
			hi = len(stream)
		}
		if err := r.AddBatch(stream[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if snap := r.Snapshot(); snap.Estimate != exact {
		t.Fatalf("post-ingest estimate %g, want %g", snap.Estimate, exact)
	}
}

// --- Sampling ---

func TestSampleExactOnUniformGraph(t *testing.T) {
	g := gen.CompleteBipartite(5, 6)
	exact := float64(core.CountAuto(g))
	for _, strat := range []Strategy{StrategyVertices, StrategyEdges} {
		res, err := Sample(g, Options{Strategy: strat, Samples: 1, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if res.Estimate != exact {
			t.Fatalf("%v: single-sample estimate on uniform graph %g, want %g", strat, res.Estimate, exact)
		}
		if res.Samples != 1 || res.StdErr != 0 {
			t.Fatalf("%v: want 1 sample and zero stderr, got %d/%g", strat, res.Samples, res.StdErr)
		}
	}
}

// TestSampleAdaptiveStops checks the stopping rule: on a uniform graph
// the sample variance is zero, so the adaptive loop must stop at
// DefaultMinSamples with a tight CI; on a skewed graph it must stop before
// MaxSamples once the target is met, and the reported CI must honor the
// target.
func TestSampleAdaptiveStops(t *testing.T) {
	uniform := gen.CompleteBipartite(8, 8)
	res, err := Sample(uniform, Options{Strategy: StrategyVertices, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != DefaultMinSamples {
		t.Fatalf("uniform graph: adaptive loop drew %d samples, want %d", res.Samples, DefaultMinSamples)
	}
	if res.CI95 != 0 {
		t.Fatalf("uniform graph: CI should collapse, got %g", res.CI95)
	}

	skewed := gen.PowerLawBipartite(400, 300, 5000, 0.8, 0.7, 6)
	res, err = Sample(skewed, Options{Strategy: StrategyEdges, TargetRelErr: 0.10, MaxSamples: 40000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples < DefaultMinSamples {
		t.Fatalf("drew %d samples, below the minimum", res.Samples)
	}
	if res.Samples < 40000 && res.CI95 > 0.10*res.Estimate {
		t.Fatalf("stopped at %d samples with CI %.1f > 10%% of %.1f", res.Samples, res.CI95, res.Estimate)
	}
}

// TestSampleStatisticalAcceptance runs the estimators over repeated
// seeds: the mean must land within k·stderr of the exact count, with
// stderr of the mean derived from the per-run spread.
func TestSampleStatisticalAcceptance(t *testing.T) {
	g := gen.PowerLawBipartite(300, 200, 2500, 0.8, 0.7, 5)
	exact := float64(core.CountAuto(g))
	for _, strat := range []Strategy{StrategyVertices, StrategyEdges} {
		const trials = 30
		var sum, sumsq float64
		for seed := int64(0); seed < trials; seed++ {
			res, err := Sample(g, Options{Strategy: strat, Samples: 400, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Estimate
			sumsq += res.Estimate * res.Estimate
		}
		mean := sum / trials
		varMean := (sumsq/trials - mean*mean) / (trials - 1)
		se := math.Sqrt(math.Max(varMean, 1))
		if math.Abs(mean-exact) > 5*se {
			t.Fatalf("%v: mean %.1f vs exact %.0f exceeds 5·stderr (%.1f)", strat, mean, exact, se)
		}
	}
}

// TestSampleAccumulatorsAgree runs the sampling kernel over both
// accumulator implementations: every vertex's participation and every
// edge's support must be identical, so Sample's draws do not depend on
// which accumulator the degree profile picks.
func TestSampleAccumulatorsAgree(t *testing.T) {
	g := gen.PowerLawBipartite(200, 150, 1800, 0.7, 0.7, 8)
	dense := wedgeKernel{g: g, adj: g.Adj(), adjT: g.AdjT(), acc: &denseAccum{counts: make([]int32, g.NumV1())}}
	hash := wedgeKernel{g: g, adj: g.Adj(), adjT: g.AdjT(), acc: &hashAccum{counts: make(map[int32]int32)}}
	for u := 0; u < g.NumV1(); u++ {
		if d, h := dense.vertexSample(u), hash.vertexSample(u); d != h {
			t.Fatalf("vertex %d: dense %d != hash %d", u, d, h)
		}
	}
	for k := int64(0); k < g.NumEdges(); k++ {
		if d, h := dense.edgeSample(k), hash.edgeSample(k); d != h {
			t.Fatalf("edge %d: dense %d != hash %d", k, d, h)
		}
	}
}

func TestSampleDegenerate(t *testing.T) {
	empty := gen.CompleteBipartite(0, 0)
	for _, strat := range []Strategy{StrategyVertices, StrategyEdges} {
		res, err := Sample(empty, Options{Strategy: strat, Samples: 10})
		if err != nil {
			t.Fatal(err)
		}
		if res.Estimate != 0 || res.Samples != 0 {
			t.Fatalf("%v: empty graph should report a zero result, got %+v", strat, res)
		}
	}
	star := gen.Star(6)
	for _, strat := range []Strategy{StrategyVertices, StrategyEdges} {
		res, err := Sample(star, Options{Strategy: strat, Samples: 50, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Estimate != 0 {
			t.Fatalf("%v: star has no butterflies, estimate %g", strat, res.Estimate)
		}
	}
	if _, err := Sample(star, Options{Strategy: Strategy(9)}); err == nil {
		t.Fatal("invalid strategy must error")
	}
	if _, err := Sample(star, Options{Samples: -1}); err == nil {
		t.Fatal("negative samples must error")
	}
}

func TestEdgeRow(t *testing.T) {
	ptr := []int64{0, 2, 2, 5, 6}
	cases := []struct {
		k    int64
		want int
	}{{0, 0}, {1, 0}, {2, 2}, {4, 2}, {5, 3}}
	for _, c := range cases {
		if got := edgeRow(ptr, c.k); got != c.want {
			t.Errorf("edgeRow(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestSampleDeterministic(t *testing.T) {
	g := gen.PowerLawBipartite(150, 120, 1000, 0.7, 0.7, 9)
	a, _ := Sample(g, Options{Strategy: StrategyEdges, Samples: 300, Seed: 21})
	b, _ := Sample(g, Options{Strategy: StrategyEdges, Samples: 300, Seed: 21})
	if a != b {
		t.Fatalf("same seed must reproduce: %+v vs %+v", a, b)
	}
}

// TestEstimatorsOnStandIns runs the approximate tier on the five paper
// stand-ins at scale 10: vertex and edge sampling, each at a fixed
// budget of 1024 draws and on the adaptive stopping rule, and the
// reservoir snapshot after streaming every edge. Each must draw
// samples and return a finite, non-negative estimate.
func TestEstimatorsOnStandIns(t *testing.T) {
	for _, name := range gen.PaperDatasetNames() {
		g, err := gen.ScaledPaperDataset(name, 10)
		if err != nil {
			t.Fatal(err)
		}
		check := func(label string, est float64, samples int) {
			t.Helper()
			if samples <= 0 || est < 0 || math.IsNaN(est) || math.IsInf(est, 0) {
				t.Errorf("%s %s: estimate %v from %d samples", name, label, est, samples)
			}
		}
		for _, opts := range []Options{
			{Strategy: StrategyVertices, Samples: 1024, Seed: 1},
			{Strategy: StrategyEdges, Samples: 1024, Seed: 1},
			{Strategy: StrategyVertices, Seed: 1},
			{Strategy: StrategyEdges, Seed: 1},
		} {
			res, err := Sample(g, opts)
			if err != nil {
				t.Fatalf("%s %v samples=%d: %v", name, opts.Strategy, opts.Samples, err)
			}
			check(fmt.Sprintf("%v samples=%d", opts.Strategy, opts.Samples), res.Estimate, res.Samples)
		}
		r, err := NewReservoir(g.NumV1(), g.NumV2(), max(int(g.NumEdges()/4), 4096), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range streamOf(g) {
			if err := r.Add(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		snap := r.Snapshot()
		check("reservoir", snap.Estimate, snap.ReservoirSize)
	}
}

func sparsifyEstimate(t *testing.T, g *graph.Bipartite, p float64, seed int64) float64 {
	t.Helper()
	res, err := Sample(g, Options{Strategy: StrategySparsify, P: p, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if res.StdErr != 0 || res.CI95 != 0 || res.Samples != 0 {
		t.Fatalf("sparsify reported error bars: %+v", res)
	}
	return res.Estimate
}

func TestEstimateSparsifyExactAtP1(t *testing.T) {
	g := gen.PowerLawBipartite(100, 80, 600, 0.7, 0.7, 3)
	want := float64(core.CountAuto(g))
	if got := sparsifyEstimate(t, g, 1, 1); got != want {
		t.Fatalf("p=1: %f, want %f", got, want)
	}
}

func TestEstimateSparsifyConverges(t *testing.T) {
	g := gen.PowerLawBipartite(400, 300, 4000, 0.7, 0.7, 4)
	exact := float64(core.CountAuto(g))
	if exact == 0 {
		t.Skip("degenerate workload")
	}
	// Average several independent sparsifications; the mean should
	// land near the exact count.
	const trials = 30
	var sum float64
	for s := int64(0); s < trials; s++ {
		sum += sparsifyEstimate(t, g, 0.6, 100+s)
	}
	mean := sum / trials
	if math.Abs(mean-exact)/exact > 0.2 {
		t.Fatalf("sparsify mean %f vs exact %f (%.1f%% off)", mean, exact, 100*math.Abs(mean-exact)/exact)
	}
}

func TestEstimateSparsifyDeterministic(t *testing.T) {
	g := gen.PowerLawBipartite(100, 100, 500, 0.7, 0.7, 5)
	if sparsifyEstimate(t, g, 0.5, 42) != sparsifyEstimate(t, g, 0.5, 42) {
		t.Fatal("same seed gave different estimates")
	}
}

func TestEstimateSparsifyRejectsP(t *testing.T) {
	g := gen.Star(2)
	for _, p := range []float64{0, -0.5, 1.5} {
		if _, err := Sample(g, Options{Strategy: StrategySparsify, P: p, Seed: 1}); err == nil {
			t.Errorf("p=%g accepted", p)
		}
	}
}

func TestSplitMixUniform(t *testing.T) {
	r := newSplitMix(7)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.float64()
		if v < 0 || v >= 1 {
			t.Fatalf("sample %f out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %f far from 0.5", mean)
	}
}

// shuffledStream returns g's edges in a seeded random order.
func shuffledStream(g *graph.Bipartite, seed int64) [][2]int {
	stream := streamOf(g)
	rand.New(rand.NewSource(seed)).Shuffle(len(stream), func(i, j int) {
		stream[i], stream[j] = stream[j], stream[i]
	})
	return stream
}

// BenchmarkReservoirStream streams the github stand-in at scale 1
// (440,237 edges, shuffled) through AddBatch in 4096-edge chunks, one
// whole stream per op, into reservoirs of 2^14 and 2^16 edges.
func BenchmarkReservoirStream(b *testing.B) {
	g, err := gen.ScaledPaperDataset("github", 1)
	if err != nil {
		b.Fatal(err)
	}
	stream := shuffledStream(g, 1)
	for _, capacity := range []int{1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("R=%d", capacity), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := NewReservoir(g.NumV1(), g.NumV2(), capacity, 7)
				if err != nil {
					b.Fatal(err)
				}
				for lo := 0; lo < len(stream); lo += 4096 {
					if err := r.AddBatch(stream[lo:min(lo+4096, len(stream))]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
