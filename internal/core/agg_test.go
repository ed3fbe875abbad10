package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"butterfly/internal/dense"
	"butterfly/internal/gen"
	"butterfly/internal/graph"
)

var allAggs = []AggPolicy{AggSort, AggHash, AggHist, AggBatch}

func TestAggPolicyStrings(t *testing.T) {
	want := map[AggPolicy]string{
		AggAuto: "auto", AggSort: "sort", AggHash: "hash",
		AggHist: "hist", AggBatch: "batch",
		AggPolicy(42): "AggPolicy(42)",
	}
	for p, s := range want {
		if p.String() != s || p.Mode() != s {
			t.Errorf("String(%d) = %q, Mode = %q, want %q", int(p), p.String(), p.Mode(), s)
		}
	}
	for _, p := range append(allAggs, AggAuto) {
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	if AggPolicy(99).Valid() || AggPolicy(-1).Valid() {
		t.Error("out-of-range policies must be invalid")
	}
}

// adversarialGraphs are the shapes the cross-mode matrix runs on: star
// hubs (maximal skew, zero butterflies), long paths (no wedges close),
// bicliques (every wedge closes), chained bicliques, empty and
// singleton sides, plus a seeded power-law graph.
func adversarialGraphs() map[string]*graph.Bipartite {
	return map[string]*graph.Bipartite{
		"star":          gen.Star(40),
		"star-T":        gen.Star(40).Transposed(),
		"path":          gen.Cycle(30).FilterEdges(func(u, v int32) bool { return !(u == 29 && v == 0) }),
		"cycle":         gen.Cycle(24),
		"biclique":      gen.CompleteBipartite(8, 8),
		"bicliques":     gen.BicliqueChain(4, 5, 6),
		"empty":         gen.CompleteBipartite(0, 0),
		"singleton-v1":  gen.CompleteBipartite(1, 12),
		"singleton-v2":  gen.CompleteBipartite(12, 1),
		"edgeless":      graph.FromEdges(6, 7, nil),
		"powerlaw":      gen.PowerLawBipartite(90, 70, 700, 0.8, 0.8, 11),
		"powerlaw-wide": gen.PowerLawBipartite(40, 300, 900, 0.9, 0.5, 7),
	}
}

// TestAggCrossModeMatrix is the satellite's differential matrix: all
// four aggregation modes × all hub policies × sequential and parallel
// execution must produce the identical exact count on every adversarial
// shape. Run under -race in CI, which also exercises the parallel
// kernels' sharing discipline.
func TestAggCrossModeMatrix(t *testing.T) {
	hubs := []hubPolicy{hubAuto, hubNever, hubAlways}
	threads := []int{1, 4}
	for name, g := range adversarialGraphs() {
		want := CountSpGEMM(g)
		for _, inv := range []Invariant{Inv2, Inv5} {
			for _, agg := range allAggs {
				for _, hub := range hubs {
					for _, th := range threads {
						got := CountWith(g, Options{
							Invariant: inv, Threads: th, hub: hub, Agg: agg,
						})
						if got != want {
							t.Errorf("%s inv=%v agg=%v hub=%v threads=%d: got %d, want %d",
								name, inv, agg, hub, th, got, want)
						}
					}
				}
			}
		}
	}
}

// TestAggModesAgreeOnStandIns runs the sequential auto-invariant
// count of the five paper stand-ins at scale 10 under every
// aggregation policy, auto included. All five give one count, and
// ResolveAgg turns auto into a concrete mode and leaves a fixed mode
// as it is.
func TestAggModesAgreeOnStandIns(t *testing.T) {
	for _, name := range gen.PaperDatasetNames() {
		g, err := gen.ScaledPaperDataset(name, 10)
		if err != nil {
			t.Fatal(err)
		}
		inv := AutoInvariant(g)
		want := CountWith(g, Options{Invariant: inv, Agg: AggAuto})
		for _, agg := range append([]AggPolicy{AggAuto}, allAggs...) {
			opts := Options{Invariant: inv, Agg: agg}
			used := ResolveAgg(g, opts)
			if used == AggAuto || !used.Valid() || (agg != AggAuto && used != agg) {
				t.Errorf("%s: ResolveAgg(%v) = %v, want a concrete mode (the requested one if fixed)", name, agg, used)
			}
			if got := CountWith(g, opts); got != want {
				t.Errorf("%s agg=%v: got %d, auto gave %d", name, agg, got, want)
			}
		}
	}
}

// TestQuickAggModesAgree drives the modes through random graphs with
// the dense-matrix oracle as ground truth (same oracle the family
// tests use).
func TestQuickAggModesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 12)
		inv := Invariants()[rng.Intn(NumInvariants)]
		want := dense.SpecCount(d)
		for _, agg := range allAggs {
			if CountWith(g, Options{Invariant: inv, Agg: agg}) != want {
				return false
			}
			if CountWith(g, Options{Invariant: inv, Agg: agg, Threads: 3, hub: hubNever}) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAggArenaReuse checks the new kernels keep the workspace at-rest
// invariant: a warm arena must serve repeated counts of every mode with
// consistent results (a dirty accumulator or stale hash slot would skew
// the second round).
func TestAggArenaReuse(t *testing.T) {
	g := gen.PowerLawBipartite(80, 60, 600, 0.8, 0.8, 5)
	want := CountSpGEMM(g)
	a := NewArena()
	for round := 0; round < 3; round++ {
		for _, agg := range allAggs {
			if got := CountWith(g, Options{Invariant: Inv2, Agg: agg, Arena: a}); got != want {
				t.Fatalf("round %d agg=%v: got %d, want %d", round, agg, got, want)
			}
		}
	}
}

func TestSortWedges(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ws := newWorkspace(0)
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(400)
		maxVal := int32(rng.Intn(1<<20) + 1)
		buf := make([]int32, n)
		for i := range buf {
			buf[i] = rng.Int31n(maxVal + 1)
		}
		want := append([]int32(nil), buf...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := ws.sortWedges(buf, maxVal)
		if len(got) != len(want) {
			t.Fatalf("trial %d: length %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: index %d: %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestHashTableGrowth(t *testing.T) {
	ws := newWorkspace(0)
	ws.hashInit(aggHashMinSize)
	const n = 10_000
	for rep := 0; rep < 3; rep++ {
		for z := int32(0); z < n; z++ {
			ws.hashAdd(z)
		}
	}
	if len(ws.hused) != n {
		t.Fatalf("distinct keys %d, want %d", len(ws.hused), n)
	}
	seen := make(map[int32]bool, n)
	for _, s := range ws.hused {
		z, c := ws.hkey[s], ws.hval[s]
		if c != 3 {
			t.Fatalf("key %d count %d, want 3", z, c)
		}
		if seen[z] {
			t.Fatalf("key %d stored twice", z)
		}
		seen[z] = true
	}
}

// TestResolveAgg pins the chooser's behavior on canonical shapes: it
// must return a concrete mode (never AggAuto), honor explicit requests,
// and report hist for the inherently-histogram blocked variant.
func TestResolveAgg(t *testing.T) {
	g := gen.PowerLawBipartite(50, 40, 300, 0.8, 0.8, 3)
	if got := ResolveAgg(g, Options{}); got == AggAuto || !got.Valid() {
		t.Fatalf("auto resolution returned %v", got)
	}
	if got := ResolveAgg(g, Options{Agg: AggSort}); got != AggSort {
		t.Fatalf("explicit request resolved to %v", got)
	}
	if got := ResolveAgg(g, Options{Agg: AggSort, BlockSize: 8}); got != AggHist {
		t.Fatalf("blocked variant resolved to %v, want AggHist", got)
	}
	if got := ResolveAgg(g, Options{Agg: AggSort, BlockSize: 8, Threads: 4}); got != AggSort {
		t.Fatalf("parallel run ignores BlockSize; resolved to %v, want AggSort", got)
	}
	// A narrow exposed side must choose the cache-resident histogram.
	if got := ResolveAgg(g, Options{Invariant: Inv2}); got != AggHist {
		t.Fatalf("narrow graph resolved to %v, want AggHist", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid Agg should panic")
		}
	}()
	ResolveAgg(g, Options{Agg: AggPolicy(77)})
}

// TestAutoAggDecisionTable exercises every branch of the chooser with
// synthetic profiles.
func TestAutoAggDecisionTable(t *testing.T) {
	mk := func(w, maxd int, mean float64) graph.DegreeProfile {
		skew := 0.0
		if mean > 0 {
			skew = float64(maxd) / mean
		}
		return graph.DegreeProfile{
			NumV1: w, NumV2: w, MaxDegV1: maxd, MaxDegV2: maxd,
			MeanDegV1: mean, MeanDegV2: mean, SkewV1: skew, SkewV2: skew,
		}
	}
	cases := []struct {
		name string
		p    graph.DegreeProfile
		want AggPolicy
	}{
		{"narrow", mk(1000, 10, 5), AggHist},
		{"wide-skewed", mk(1<<18, 4000, 6), AggHist},
		{"wide-sparse", mk(1<<18, 7, 1.2), AggHash},
		{"wide-hub-product", mk(1<<18, 2048, 400), AggBatch},
		{"wide-flat", mk(1<<18, 40, 30), AggSort},
	}
	for _, c := range cases {
		if got := autoAgg(c.p, true); got != c.want {
			t.Errorf("%s: autoAgg = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRelayoutCountInvariance: counting on the degree-ordered twin
// returns the same scalar as the original graph for every invariant —
// the property that makes the automatic relayout invisible.
func TestRelayoutCountInvariance(t *testing.T) {
	g := gen.PowerLawBipartite(100, 80, 800, 0.9, 0.9, 17)
	h, p1, p2 := g.DegreeOrdered()
	if len(p1) != g.NumV1() || len(p2) != g.NumV2() {
		t.Fatalf("permutation lengths %d/%d", len(p1), len(p2))
	}
	want := CountSpGEMM(g)
	for _, inv := range Invariants() {
		if got := Count(h, inv); got != want {
			t.Fatalf("%v: relayouted %d, original %d", inv, got, want)
		}
	}
	// The twin is cached: a second call returns the same object.
	h2, _, _ := g.DegreeOrdered()
	if h2 != h {
		t.Fatal("DegreeOrdered must cache the twin")
	}
}
