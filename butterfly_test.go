package butterfly

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// k22 is the single-butterfly graph.
func k22(t testing.TB) *Graph {
	t.Helper()
	g, err := FromEdges(2, 2, [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randGraph(t testing.TB, seed int64, m, n int, p float64) *Graph {
	t.Helper()
	g, err := GenerateErdosRenyi(m, n, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// shuffled returns g with both vertex sets renumbered by random
// permutations drawn from seed.
func shuffled(t testing.TB, g *Graph, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p1, p2 := rng.Perm(g.NumV1()), rng.Perm(g.NumV2())
	edges := g.Edges()
	for i, e := range edges {
		edges[i] = [2]int{p1[e[0]], p2[e[1]]}
	}
	h, err := FromEdges(g.NumV1(), g.NumV2(), edges)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestBuilderHappyPath(t *testing.T) {
	g := k22(t)
	if g.NumV1() != 2 || g.NumV2() != 2 || g.NumEdges() != 4 {
		t.Fatalf("shape: %s", g)
	}
	if g.Count() != 1 {
		t.Fatalf("Count = %d, want 1", g.Count())
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder(-1, 2).Build(); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := NewBuilder(2, 2).AddEdge(2, 0).Build(); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	// Errors stick: later valid edges don't clear them.
	if _, err := NewBuilder(2, 2).AddEdge(5, 5).AddEdge(0, 0).Build(); err == nil {
		t.Fatal("error did not stick")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic on error")
		}
	}()
	NewBuilder(1, 1).AddEdge(9, 9).MustBuild()
}

func TestAccessors(t *testing.T) {
	g, err := FromEdges(3, 2, [][2]int{{0, 0}, {0, 1}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge wrong")
	}
	if g.HasEdge(-1, 0) || g.HasEdge(0, 5) {
		t.Fatal("out-of-range HasEdge should be false")
	}
	if g.DegreeV1(0) != 2 || g.DegreeV2(1) != 2 {
		t.Fatal("degrees wrong")
	}
	if n := g.NeighborsV1(0); len(n) != 2 || n[0] != 0 || n[1] != 1 {
		t.Fatalf("NeighborsV1 = %v", n)
	}
	if n := g.NeighborsV2(1); len(n) != 2 || n[0] != 0 || n[1] != 2 {
		t.Fatalf("NeighborsV2 = %v", n)
	}
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("Edges len %d", len(es))
	}
	back, err := FromEdges(3, 2, es)
	if err != nil || !back.Equal(g) {
		t.Fatal("edge round trip failed")
	}
	if g.Density() != 0.5 {
		t.Fatalf("Density = %f", g.Density())
	}
	if !strings.Contains(g.String(), "|E|=3") {
		t.Fatalf("String = %q", g.String())
	}
	tr := g.Transposed()
	if tr.NumV1() != 2 || !tr.HasEdge(1, 2) {
		t.Fatal("Transposed wrong")
	}
}

func TestStats(t *testing.T) {
	g := k22(t)
	s := g.Stats()
	if s.NumEdges != 4 || s.WedgesV1 != 2 || s.WedgesV2 != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxDegV1 != 2 || s.AvgDegV2 != 2 {
		t.Fatalf("stats degrees = %+v", s)
	}
}

func TestCountAllInvariantsAgree(t *testing.T) {
	g := randGraph(t, 3, 60, 40, 0.15)
	want := g.Count()
	for inv := Invariant1; inv <= Invariant8; inv++ {
		got, err := g.CountWith(CountOptions{Invariant: inv})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%v: %d, want %d", inv, got, want)
		}
	}
	if got, err := g.CountWith(CountOptions{}); err != nil || got != want {
		t.Fatalf("auto CountWith: %d, %v", got, err)
	}
}

func TestCountParallelAndVariants(t *testing.T) {
	g := randGraph(t, 4, 100, 80, 0.1)
	want := g.Count()
	if got, err := g.CountWith(CountOptions{Threads: 4}); err != nil || got != want {
		t.Fatalf("parallel: %d, %v, want %d", got, err, want)
	}
	if got, err := g.CountWith(CountOptions{Threads: -1}); err != nil || got != want {
		t.Fatalf("parallel GOMAXPROCS: %d, %v, want %d", got, err, want)
	}
	got, err := g.CountWith(CountOptions{Invariant: Invariant5, BlockSize: 32})
	if err != nil || got != want {
		t.Fatalf("blocked: %d, %v", got, err)
	}
	got, err = shuffled(t, g, 5).CountWith(CountOptions{Threads: 2})
	if err != nil || got != want {
		t.Fatalf("relabeled parallel: %d, %v", got, err)
	}
}

func TestCountWithErrors(t *testing.T) {
	g := k22(t)
	if _, err := g.CountWith(CountOptions{Invariant: Invariant(42)}); err == nil {
		t.Fatal("invalid invariant accepted")
	}
	if _, err := g.CountWith(CountOptions{BlockSize: -2}); err == nil {
		t.Fatal("negative block size accepted")
	}
	var nilG *Graph
	if _, err := nilG.CountWith(CountOptions{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestInvariantStrings(t *testing.T) {
	if InvariantAuto.String() != "auto" || Invariant3.String() != "Inv3" {
		t.Fatal("Invariant.String wrong")
	}
	if Invariant(77).String() != "Invariant(77)" {
		t.Fatal("invalid Invariant.String wrong")
	}
	if !Invariant8.Valid() || Invariant(9).Valid() {
		t.Fatal("Valid wrong")
	}
	if V1.String() != "V1" || V2.String() != "V2" {
		t.Fatal("Side.String wrong")
	}
}

func TestVertexButterfliesAndEdgeSupports(t *testing.T) {
	g := randGraph(t, 5, 40, 30, 0.2)
	total := g.Count()

	for _, side := range []Side{V1, V2} {
		s, err := g.VertexButterflies(side)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, v := range s {
			sum += v
		}
		if sum != 2*total {
			t.Errorf("side %v: Σ = %d, want %d", side, sum, 2*total)
		}
	}
	if _, err := g.VertexButterflies(Side(5)); err == nil {
		t.Fatal("invalid side accepted")
	}

	var supSum int64
	sups := g.EdgeSupports()
	if int64(len(sups)) != g.NumEdges() {
		t.Fatalf("EdgeSupports len %d, want %d", len(sups), g.NumEdges())
	}
	for _, e := range sups {
		supSum += e.Count
	}
	if supSum != 4*total {
		t.Fatalf("Σ supports = %d, want %d", supSum, 4*total)
	}
}

func TestWedgesAndClustering(t *testing.T) {
	g := k22(t)
	w1, w2 := g.Wedges()
	if w1 != 2 || w2 != 2 {
		t.Fatalf("Wedges = %d, %d", w1, w2)
	}
	if cc := g.ClusteringCoefficient(); cc != 1 {
		t.Fatalf("cc = %f", cc)
	}
}

func TestButterfliesEnumeration(t *testing.T) {
	g, err := GenerateComplete(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	var got []Butterfly
	g.Butterflies(func(b Butterfly) bool {
		got = append(got, b)
		return true
	})
	if int64(len(got)) != g.Count() {
		t.Fatalf("enumerated %d, count %d", len(got), g.Count())
	}
	for _, b := range got {
		for _, e := range [][2]int{{b.U1, b.W1}, {b.U1, b.W2}, {b.U2, b.W1}, {b.U2, b.W2}} {
			if !g.HasEdge(e[0], e[1]) {
				t.Fatalf("enumerated non-butterfly %+v", b)
			}
		}
	}
	// Early stop.
	n := 0
	g.Butterflies(func(Butterfly) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestEstimateCount(t *testing.T) {
	g, err := GenerateComplete(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	exact := float64(g.Count())
	for _, strat := range []EstimateStrategy{SampleVertices, SampleEdges} {
		est, err := g.EstimateCount(EstimateOptions{Strategy: strat, Samples: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if est != exact {
			t.Errorf("strategy %d on uniform graph: %f, want %f", strat, est, exact)
		}
	}
	if _, err := g.EstimateCount(EstimateOptions{Samples: 0}); err == nil {
		t.Fatal("zero samples accepted")
	}
	if _, err := g.EstimateCount(EstimateOptions{Strategy: EstimateStrategy(7), Samples: 1}); err == nil {
		t.Fatal("invalid strategy accepted")
	}
}

func TestVerify(t *testing.T) {
	if err := randGraph(t, 6, 50, 40, 0.15).Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestKONECTRoundTrip(t *testing.T) {
	g := randGraph(t, 7, 20, 20, 0.3)
	var buf bytes.Buffer
	if err := g.WriteKONECT(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadKONECT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() || back.Count() != g.Count() {
		t.Fatal("KONECT round trip changed the graph")
	}
	if _, err := ReadKONECT(strings.NewReader("bogus line\n")); err == nil {
		t.Fatal("malformed KONECT accepted")
	}
	if _, err := ReadKONECTFile("/does/not/exist"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestKONECTFileRoundTrip(t *testing.T) {
	g := k22(t)
	path := t.TempDir() + "/out.k22"
	if err := g.WriteKONECTFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadKONECTFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatal("file round trip differs")
	}
}

func TestGenerators(t *testing.T) {
	if _, err := GenerateErdosRenyi(10, 10, 1.5, 1); err == nil {
		t.Fatal("bad p accepted")
	}
	if _, err := GenerateErdosRenyi(-1, 10, 0.5, 1); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := GenerateGnm(3, 3, 10, 1); err == nil {
		t.Fatal("excess edges accepted")
	}
	if _, err := GenerateGnm(-3, 3, 1, 1); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := GeneratePowerLaw(0, 3, 1, 0.5, 0.5, 1); err == nil {
		t.Fatal("zero side accepted")
	}
	if _, err := GeneratePowerLaw(3, 3, -1, 0.5, 0.5, 1); err == nil {
		t.Fatal("negative edges accepted")
	}
	if _, err := GenerateComplete(-1, 1); err == nil {
		t.Fatal("negative complete accepted")
	}

	gnm, err := GenerateGnm(20, 20, 50, 2)
	if err != nil || gnm.NumEdges() != 50 {
		t.Fatalf("Gnm: %v", err)
	}
	pl, err := GeneratePowerLaw(50, 50, 200, 0.7, 0.7, 2)
	if err != nil || pl.NumEdges() != 200 {
		t.Fatalf("PowerLaw: %v", err)
	}
	k, err := GenerateComplete(4, 4)
	if err != nil || k.Count() != 36 {
		t.Fatalf("Complete: %v", err)
	}
}

func TestPaperDatasets(t *testing.T) {
	names := PaperDatasets()
	if len(names) != 5 {
		t.Fatalf("%d datasets", len(names))
	}
	g, err := GeneratePaperDataset("github", 100)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumV1() == 0 || g.NumEdges() == 0 {
		t.Fatal("empty scaled dataset")
	}
	if _, err := GeneratePaperDataset("nope", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := GeneratePaperDataset("nope", 10); err == nil {
		t.Fatal("unknown scaled dataset accepted")
	}
}

func TestPeelingAPI(t *testing.T) {
	g, err := GenerateComplete(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.VertexButterflies(V1)
	if err != nil {
		t.Fatal(err)
	}
	tip, err := g.KTip(s[0], V1)
	if err != nil {
		t.Fatal(err)
	}
	if !tip.Equal(g) {
		t.Fatal("s-tip of complete graph should keep everything")
	}
	tipLA, err := g.KTipLookAhead(s[0], V1)
	if err != nil || !tipLA.Equal(tip) {
		t.Fatal("look-ahead k-tip differs")
	}
	empty, err := g.KTip(s[0]+1, V1)
	if err != nil || empty.NumEdges() != 0 {
		t.Fatal("(s+1)-tip should be empty")
	}

	sup := g.EdgeSupports()[0].Count
	wing, err := g.KWing(sup)
	if err != nil || !wing.Equal(g) {
		t.Fatal("s-wing should keep everything")
	}
	gone, err := g.KWing(sup + 1)
	if err != nil || gone.NumEdges() != 0 {
		t.Fatal("(s+1)-wing should be empty")
	}

	tips, err := g.TipNumbers(V1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range tips {
		if tn != s[0] {
			t.Fatalf("tip number %d, want %d", tn, s[0])
		}
	}
	wings := g.WingNumbers()
	if int64(len(wings)) != g.NumEdges() {
		t.Fatalf("WingNumbers len %d", len(wings))
	}
	for _, w := range wings {
		if w.Count != sup {
			t.Fatalf("wing number %d, want %d", w.Count, sup)
		}
	}
}

func TestPeelingAPIErrors(t *testing.T) {
	g := k22(t)
	if _, err := g.KTip(-1, V1); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, err := g.KTip(0, Side(9)); err == nil {
		t.Fatal("bad side accepted")
	}
	if _, err := g.KTipLookAhead(-1, V1); err == nil {
		t.Fatal("negative k accepted (look-ahead)")
	}
	if _, err := g.KTipLookAhead(0, Side(9)); err == nil {
		t.Fatal("bad side accepted (look-ahead)")
	}
	if _, err := g.KWing(-3); err == nil {
		t.Fatal("negative k accepted (wing)")
	}
	if _, err := g.TipNumbers(Side(9)); err == nil {
		t.Fatal("bad side accepted (tip numbers)")
	}
}

// Public-API property test: enumeration length always equals Count.
func TestQuickEnumerationMatchesCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := GenerateErdosRenyi(rng.Intn(10)+2, rng.Intn(10)+2, 0.5, seed)
		if err != nil {
			return false
		}
		var n int64
		g.Butterflies(func(Butterfly) bool { n++; return true })
		return n == g.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestKTipParallelAndRounds(t *testing.T) {
	g := randGraph(t, 21, 40, 35, 0.25)
	for _, k := range []int64{0, 1, 3} {
		want, err := g.KTip(k, V1)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := g.KTipWith(k, V1, PeelOptions{Threads: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("k=%d: parallel k-tip differs", k)
		}
		gotAuto, _, err := g.KTipWith(k, V1, PeelOptions{})
		if err != nil || !gotAuto.Equal(want) {
			t.Fatalf("k=%d: GOMAXPROCS k-tip differs (%v)", k, err)
		}
	}

	want, err := g.TipNumbers(V1)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := g.TipNumbersWith(V1, PeelOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tip number %d: rounds %d, heap %d", i, got[i], want[i])
		}
	}
	if _, _, err := g.KTipWith(-1, V1, PeelOptions{Threads: 2}); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, _, err := g.KTipWith(1, Side(7), PeelOptions{Threads: 2}); err == nil {
		t.Fatal("bad side accepted")
	}
	if _, _, err := g.TipNumbersWith(Side(7), PeelOptions{Threads: 2}); err == nil {
		t.Fatal("bad side accepted (rounds)")
	}
}

func TestVerifyDerivationAPI(t *testing.T) {
	g := randGraph(t, 41, 8, 9, 0.5)
	if err := g.VerifyDerivation(); err != nil {
		t.Fatal(err)
	}
	big, err := GenerateGnm(300, 300, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := big.VerifyDerivation(); err == nil {
		t.Fatal("oversized graph accepted")
	}
}

func TestDerivationTraceAPI(t *testing.T) {
	g := randGraph(t, 42, 7, 6, 0.5)
	want := g.Count()
	for inv := Invariant1; inv <= Invariant8; inv++ {
		trace, err := g.DerivationTrace(inv)
		if err != nil {
			t.Fatal(err)
		}
		if trace[0] != 0 {
			t.Fatalf("%v: trace starts at %d", inv, trace[0])
		}
		if trace[len(trace)-1] != want {
			t.Fatalf("%v: trace ends at %d, want %d", inv, trace[len(trace)-1], want)
		}
		// Invariant values are monotone non-decreasing: exposing more
		// vertices never uncounts butterflies.
		for i := 1; i < len(trace); i++ {
			if trace[i] < trace[i-1] {
				t.Fatalf("%v: trace decreases at %d", inv, i)
			}
		}
	}
	if _, err := g.DerivationTrace(InvariantAuto); err == nil {
		t.Fatal("auto invariant accepted for trace")
	}
	big, err := GenerateGnm(300, 300, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := big.DerivationTrace(Invariant1); err == nil {
		t.Fatal("oversized graph accepted")
	}
}

func TestDensestByButterfliesAPI(t *testing.T) {
	g, err := GenerateComplete(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.DensestByButterflies(V1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Vertices != 4 || res.Butterflies != 36 {
		t.Fatalf("result %+v", res)
	}
	sub, err := g.InducedSubgraph(res.Keep, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Count() != res.Butterflies {
		t.Fatal("Keep mask does not reproduce reported count")
	}
	if _, err := g.DensestByButterflies(Side(9)); err == nil {
		t.Fatal("bad side accepted")
	}
}

// Graph is immutable after construction: concurrent analyses on the
// same Graph must be safe. Run with -race (CI does).
func TestConcurrentReadersSafe(t *testing.T) {
	g := randGraph(t, 71, 300, 250, 0.05)
	want := g.Count()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 4 {
			case 0:
				if got, err := g.CountWith(CountOptions{Threads: 2}); err != nil || got != want {
					errs <- fmt.Errorf("parallel count %d (%v), want %d", got, err, want)
				}
			case 1:
				if _, err := g.VertexButterflies(V1); err != nil {
					errs <- err
				}
			case 2:
				if _, err := g.KTip(1, V1); err != nil {
					errs <- err
				}
			case 3:
				g.EdgeSupports()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestGenerateSBM(t *testing.T) {
	g, err := GenerateSBM([]int{10, 10}, []int{10, 10}, 0.8, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumV1() != 20 || g.NumV2() != 20 {
		t.Fatal("SBM sizes wrong")
	}
	// Planted structure should be significant against the null model.
	sig, err := g.ButterflySignificance(SignificanceOptions{Samples: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sig.ZScore < 2 {
		t.Fatalf("SBM z-score %.1f too low", sig.ZScore)
	}
	if _, err := GenerateSBM([]int{2}, []int{2}, 2, 0, 1); err == nil {
		t.Fatal("bad pIn accepted")
	}
	if _, err := GenerateSBM([]int{-1}, []int{2}, 0.5, 0, 1); err == nil {
		t.Fatal("negative block accepted")
	}
}

func TestNumInvariantsMatchesCore(t *testing.T) {
	if NumInvariants != int(Invariant8) {
		t.Fatalf("NumInvariants = %d, want %d", NumInvariants, int(Invariant8))
	}
}

func TestCountWithAggModes(t *testing.T) {
	g := randGraph(t, 4, 100, 80, 0.1)
	want := g.Count()
	for _, agg := range []AggPolicy{AggAuto, AggSort, AggHash, AggHist, AggBatch} {
		got, err := g.CountWith(CountOptions{Agg: agg})
		if err != nil || got != want {
			t.Fatalf("agg=%v sequential: %d, %v (want %d)", agg, got, err, want)
		}
		got, err = g.CountWith(CountOptions{Agg: agg, Threads: 3})
		if err != nil || got != want {
			t.Fatalf("agg=%v parallel: %d, %v (want %d)", agg, got, err, want)
		}
	}
	resolved := g.ResolvedAgg(CountOptions{})
	if resolved == AggAuto || !resolved.Valid() {
		t.Fatalf("ResolvedAgg returned %v", resolved)
	}
	if got := g.ResolvedAgg(CountOptions{Agg: AggSort}); got != AggSort {
		t.Fatalf("explicit mode resolved to %v", got)
	}
}

func TestAggPolicyStringsAndParse(t *testing.T) {
	want := map[AggPolicy]string{
		AggAuto: "auto", AggSort: "sort", AggHash: "hash",
		AggHist: "hist", AggBatch: "batch",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("String(%v) = %q, want %q", int(p), p.String(), s)
		}
		back, err := ParseAggPolicy(s)
		if err != nil || back != p {
			t.Errorf("ParseAggPolicy(%q) = %v, %v", s, back, err)
		}
	}
	if _, err := ParseAggPolicy("bogus"); err == nil {
		t.Error("bogus mode accepted")
	}
	if AggPolicy(9).String() == "" || AggPolicy(9).Valid() {
		t.Error("out-of-range policy must be invalid with a diagnostic String")
	}
}

func TestPeelEngineStringsAndParse(t *testing.T) {
	for e, s := range map[PeelEngine]string{PeelDelta: "delta", PeelRecount: "recount"} {
		if e.String() != s {
			t.Errorf("String(%d) = %q, want %q", int(e), e.String(), s)
		}
		back, err := ParsePeelEngine(s)
		if err != nil || back != e {
			t.Errorf("ParsePeelEngine(%q) = %v, %v", s, back, err)
		}
	}
	for _, s := range []string{"", "Delta", "bogus"} {
		if _, err := ParsePeelEngine(s); err == nil {
			t.Errorf("engine %q accepted", s)
		}
	}
}

func TestCountWithAggErrors(t *testing.T) {
	g := k22(t)
	if _, err := g.CountWith(CountOptions{Agg: AggPolicy(42)}); err == nil {
		t.Fatal("invalid agg accepted")
	}
	if _, err := g.CountWith(CountOptions{Agg: AggSort, Algorithm: AlgorithmWedgeHash}); err == nil {
		t.Fatal("agg with non-family algorithm accepted")
	}
	if got, err := g.CountWith(CountOptions{Agg: AggAuto, Algorithm: AlgorithmWedgeHash}); err != nil || got != 1 {
		t.Fatalf("AggAuto must stay compatible with baselines: %d, %v", got, err)
	}
}
