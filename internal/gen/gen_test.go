package gen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAliasSamplerDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	s := NewAliasSampler(weights)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 4)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[s.Sample(rng)]++
	}
	for i, w := range weights {
		want := w / 10 * draws
		got := float64(counts[i])
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("index %d: %0.f draws, want ≈%0.f", i, got, want)
		}
	}
}

func TestAliasSamplerDegenerate(t *testing.T) {
	s := NewAliasSampler([]float64{0, 5, 0})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		if got := s.Sample(rng); got != 1 {
			t.Fatalf("draw %d from single-mass distribution: got %d", i, got)
		}
	}
}

func TestAliasSamplerPanics(t *testing.T) {
	for name, weights := range map[string][]float64{
		"empty":    {},
		"allZero":  {0, 0},
		"negative": {1, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			NewAliasSampler(weights)
		}()
	}
}

func TestPowerLawWeights(t *testing.T) {
	w := PowerLawWeights(5, 1)
	for i := 1; i < 5; i++ {
		if w[i] >= w[i-1] {
			t.Fatal("power-law weights not decreasing")
		}
	}
	u := PowerLawWeights(4, 0)
	for _, v := range u {
		if v != 1 {
			t.Fatal("alpha=0 should give uniform weights")
		}
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	g0 := ErdosRenyi(10, 10, 0, 1)
	if g0.NumEdges() != 0 {
		t.Fatalf("p=0 edges = %d", g0.NumEdges())
	}
	g1 := ErdosRenyi(7, 5, 1, 1)
	if g1.NumEdges() != 35 {
		t.Fatalf("p=1 edges = %d, want 35", g1.NumEdges())
	}
	if ErdosRenyi(0, 10, 0.5, 1).NumEdges() != 0 {
		t.Fatal("empty side should give no edges")
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	g := ErdosRenyi(300, 300, 0.05, 42)
	want := 0.05 * 300 * 300
	got := float64(g.NumEdges())
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("edges = %0.f, want ≈%0.f", got, want)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestErdosRenyiBadPPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("p > 1 did not panic")
		}
	}()
	ErdosRenyi(2, 2, 1.5, 1)
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := ErdosRenyi(50, 50, 0.1, 7)
	b := ErdosRenyi(50, 50, 0.1, 7)
	if !a.Equal(b) {
		t.Fatal("same seed produced different graphs")
	}
	c := ErdosRenyi(50, 50, 0.1, 8)
	if a.Equal(c) {
		t.Fatal("different seeds produced identical graphs (suspicious)")
	}
}

func TestGnmExact(t *testing.T) {
	g := Gnm(40, 60, 500, 3)
	if g.NumEdges() != 500 {
		t.Fatalf("Gnm edges = %d, want 500", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	full := Gnm(5, 5, 25, 3)
	if full.NumEdges() != 25 {
		t.Fatal("Gnm saturation failed")
	}
}

func TestGnmBadCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("excessive edge count did not panic")
		}
	}()
	Gnm(2, 2, 5, 1)
}

func TestChungLuEdgeCountAndSkew(t *testing.T) {
	g := PowerLawBipartite(500, 400, 3000, 0.8, 0.8, 11)
	if g.NumEdges() != 3000 {
		t.Fatalf("ChungLu edges = %d, want 3000", g.NumEdges())
	}
	// Vertex 0 has the largest weight; its degree should dominate the
	// median vertex's.
	d0 := g.DegreeV1(0)
	dMid := g.DegreeV1(250)
	if d0 <= dMid {
		t.Fatalf("no degree skew: deg(0)=%d deg(250)=%d", d0, dMid)
	}
}

func TestChungLuDeterministic(t *testing.T) {
	a := PowerLawBipartite(100, 100, 400, 0.7, 0.7, 5)
	b := PowerLawBipartite(100, 100, 400, 0.7, 0.7, 5)
	if !a.Equal(b) {
		t.Fatal("same seed produced different ChungLu graphs")
	}
}

func TestChungLuZeroEdges(t *testing.T) {
	if ChungLu([]float64{1}, []float64{1}, 0, 1).NumEdges() != 0 {
		t.Fatal("zero-edge ChungLu not empty")
	}
}

func TestChungLuSaturation(t *testing.T) {
	// Request more edges than the weighted support can provide: a 2×2
	// graph has only 4 cells; request 4 and ensure termination.
	g := ChungLu([]float64{1, 1}, []float64{1, 1}, 4, 1)
	if g.NumEdges() > 4 {
		t.Fatalf("edges = %d > 4", g.NumEdges())
	}
}

func TestStructuredFamilies(t *testing.T) {
	k := CompleteBipartite(3, 4)
	if k.NumEdges() != 12 || k.NumV1() != 3 || k.NumV2() != 4 {
		t.Fatalf("K(3,4) wrong: %s", k)
	}
	c := Cycle(5)
	if c.NumEdges() != 10 {
		t.Fatalf("C10 edges = %d", c.NumEdges())
	}
	for i := 0; i < 5; i++ {
		if c.DegreeV1(i) != 2 || c.DegreeV2(i) != 2 {
			t.Fatal("cycle degree != 2")
		}
	}
	s := Star(6)
	if s.NumEdges() != 6 || s.DegreeV1(0) != 6 {
		t.Fatal("star wrong")
	}
	bc := BicliqueChain(3, 2, 2)
	if bc.NumEdges() != 12 || bc.NumV1() != 6 || bc.NumV2() != 6 {
		t.Fatalf("BicliqueChain wrong: %s", bc)
	}
	// Blocks must be disjoint: u0 connects only to v0, v1.
	if bc.HasEdge(0, 2) {
		t.Fatal("BicliqueChain blocks overlap")
	}
}

func TestCyclePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Cycle(1) did not panic")
		}
	}()
	Cycle(1)
}

func TestPaperDatasetSpecs(t *testing.T) {
	names := PaperDatasetNames()
	if len(names) != 5 {
		t.Fatalf("expected 5 paper datasets, got %d", len(names))
	}
	wantSizes := map[string][3]int64{
		"arxiv-cond-mat": {16726, 22015, 58595},
		"producers":      {48833, 138844, 207268},
		"record-labels":  {168337, 18421, 233286},
		"occupations":    {127577, 101730, 250945},
		"github":         {56519, 120867, 440237},
	}
	for name, want := range wantSizes {
		s, err := PaperDatasetSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		if int64(s.V1) != want[0] || int64(s.V2) != want[1] || s.Edges != want[2] {
			t.Errorf("%s: spec %d/%d/%d, want %v", name, s.V1, s.V2, s.Edges, want)
		}
		if s.PaperButterflies <= 0 {
			t.Errorf("%s: missing paper butterfly count", name)
		}
	}
	if _, err := PaperDatasetSpec("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestScaledPaperDataset(t *testing.T) {
	g, err := ScaledPaperDataset("arxiv-cond-mat", 100)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumV1() != 167 || g.NumV2() != 220 {
		t.Fatalf("scaled sizes %d/%d", g.NumV1(), g.NumV2())
	}
	if g.NumEdges() != 585 {
		t.Fatalf("scaled edges = %d", g.NumEdges())
	}
	if _, err := ScaledPaperDataset("arxiv-cond-mat", 0); err == nil {
		t.Fatal("scale 0 accepted")
	}
	if _, err := ScaledPaperDataset("nope", 2); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestPaperDatasetGenerateSmallest(t *testing.T) {
	if testing.Short() {
		t.Skip("full dataset generation in -short mode")
	}
	g, err := PaperDataset("arxiv-cond-mat")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumV1() != 16726 || g.NumV2() != 22015 {
		t.Fatalf("sizes %d/%d", g.NumV1(), g.NumV2())
	}
	if g.NumEdges() != 58595 {
		t.Fatalf("edges = %d, want 58595", g.NumEdges())
	}
}

// Property: generators always produce structurally valid simple graphs
// within bounds.
func TestQuickGeneratorsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := rng.Intn(20)+1, rng.Intn(20)+1
		e := int64(rng.Intn(m*n + 1))
		for _, g := range []interface{ Validate() error }{
			ErdosRenyi(m, n, rng.Float64(), seed),
			Gnm(m, n, e, seed),
			PowerLawBipartite(m, n, e, rng.Float64()*1.5, rng.Float64()*1.5, seed),
		} {
			if g.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g := PreferentialAttachment(400, 300, 3000, 21)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 || g.NumEdges() > 3000 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	// Rich-get-richer must produce skew: max degree well above mean.
	maxDeg := 0
	for u := 0; u < g.NumV1(); u++ {
		if d := g.DegreeV1(u); d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(g.NumEdges()) / 400
	if float64(maxDeg) < 3*mean {
		t.Fatalf("no skew: max %d vs mean %.1f", maxDeg, mean)
	}
	// Deterministic.
	if !g.Equal(PreferentialAttachment(400, 300, 3000, 21)) {
		t.Fatal("same seed differs")
	}
	if g.Equal(PreferentialAttachment(400, 300, 3000, 22)) {
		t.Fatal("different seed identical")
	}
}

func TestPreferentialAttachmentPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zeroSide": func() { PreferentialAttachment(0, 3, 1, 1) },
		"negEdges": func() { PreferentialAttachment(3, 3, -1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
