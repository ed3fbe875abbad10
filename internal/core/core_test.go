package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"butterfly/internal/dense"
	"butterfly/internal/gen"
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

// randDense returns a random binary m×n matrix.
func randDense(rng *rand.Rand, m, n int, density float64) *dense.Matrix {
	d := dense.New(m, n)
	for i := range d.Data {
		if rng.Float64() < density {
			d.Data[i] = 1
		}
	}
	return d
}

// graphOf converts a binary dense matrix into a Bipartite graph.
func graphOf(t testing.TB, d *dense.Matrix) *graph.Bipartite {
	g, err := graph.FromCSR(sparse.FromDense(d, true))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randGraphAndDense(rng *rand.Rand, maxSide int) (*dense.Matrix, *graph.Bipartite) {
	m := rng.Intn(maxSide) + 1
	n := rng.Intn(maxSide) + 1
	d := randDense(rng, m, n, 0.2+0.6*rng.Float64())
	g, err := graph.FromCSR(sparse.FromDense(d, true))
	if err != nil {
		panic(err)
	}
	return d, g
}

func binom2(x int64) int64 { return x * (x - 1) / 2 }

func TestInvariantMetadata(t *testing.T) {
	if len(Invariants()) != NumInvariants {
		t.Fatalf("Invariants() returned %d members", len(Invariants()))
	}
	if Inv1.String() != "Inv1" || Inv8.String() != "Inv8" {
		t.Fatal("String names wrong")
	}
	if Invariant(0).String() != "auto" || Invariant(9).String() != "Invariant(9)" {
		t.Fatal("auto or invalid invariant String wrong")
	}
	if !Invariant(0).Valid() || !Inv8.Valid() || Invariant(9).Valid() || Invariant(-1).Valid() {
		t.Fatal("Valid wrong")
	}
	for _, inv := range []Invariant{Inv1, Inv2, Inv3, Inv4} {
		if !inv.PartitionsV2() {
			t.Errorf("%v should partition V2", inv)
		}
	}
	for _, inv := range []Invariant{Inv5, Inv6, Inv7, Inv8} {
		if inv.PartitionsV2() {
			t.Errorf("%v should partition V1", inv)
		}
	}
}

func TestCountInvalidInvariantPanics(t *testing.T) {
	g := gen.CompleteBipartite(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid invariant did not panic")
		}
	}()
	Count(g, Invariant(9))
}

func TestCountSingleButterfly(t *testing.T) {
	g := gen.CompleteBipartite(2, 2)
	for _, inv := range Invariants() {
		if got := Count(g, inv); got != 1 {
			t.Errorf("%v: Count(K2,2) = %d, want 1", inv, got)
		}
	}
}

func TestCountClosedForms(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Bipartite
		want int64
	}{
		{"K(4,5)", gen.CompleteBipartite(4, 5), binom2(4) * binom2(5)},
		{"K(7,3)", gen.CompleteBipartite(7, 3), binom2(7) * binom2(3)},
		{"C4", gen.Cycle(2), 1},
		{"C12", gen.Cycle(6), 0},
		{"Star", gen.Star(9), 0},
		{"BicliqueChain", gen.BicliqueChain(5, 3, 4), 5 * binom2(3) * binom2(4)},
		{"empty", graph.NewBuilder(4, 4).Build(), 0},
	}
	for _, c := range cases {
		for _, inv := range Invariants() {
			if got := Count(c.g, inv); got != c.want {
				t.Errorf("%s/%v: Count = %d, want %d", c.name, inv, got, c.want)
			}
		}
	}
}

// The headline property test: every family member agrees with the
// dense specification (7) on random graphs.
func TestQuickAllInvariantsMatchSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 12)
		want := dense.SpecCount(d)
		for _, inv := range Invariants() {
			if Count(g, inv) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCountAutoMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 12)
		return CountAuto(g) == dense.SpecCount(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAutoInvariantPartitionsSmallerSide(t *testing.T) {
	wide := gen.ErdosRenyi(5, 50, 0.2, 1) // |V2| ≫ |V1| → partition V1
	if inv := AutoInvariant(wide); inv.PartitionsV2() {
		t.Errorf("wide graph picked %v, want a V1-partitioning invariant", inv)
	}
	tall := gen.ErdosRenyi(50, 5, 0.2, 1)
	if inv := AutoInvariant(tall); !inv.PartitionsV2() {
		t.Errorf("tall graph picked %v, want a V2-partitioning invariant", inv)
	}
}

// Parallel counting is exactly equal to sequential for every invariant
// and a spread of worker counts.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := gen.PowerLawBipartite(400, 300, 3000, 0.8, 0.6, 7)
	for _, inv := range Invariants() {
		want := Count(g, inv)
		for _, threads := range []int{2, 3, 6, 16} {
			got := CountWith(g, Options{Invariant: inv, Threads: threads})
			if got != want {
				t.Errorf("%v threads=%d: %d, want %d", inv, threads, got, want)
			}
		}
	}
	_ = rng
}

func TestQuickParallelMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 15)
		want := dense.SpecCount(d)
		for _, inv := range []Invariant{Inv1, Inv4, Inv6, Inv7} {
			if CountWith(g, Options{Invariant: inv, Threads: 4}) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestThreadsNegativeUsesGOMAXPROCS(t *testing.T) {
	g := gen.CompleteBipartite(6, 6)
	want := Count(g, Inv2)
	if got := CountWith(g, Options{Invariant: Inv2, Threads: -1}); got != want {
		t.Fatalf("Threads=-1: %d, want %d", got, want)
	}
}

// Blocked variants agree with unblocked for all invariants and block
// sizes, including sizes larger than the vertex set.
func TestQuickBlockedMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 14)
		want := dense.SpecCount(d)
		for _, inv := range Invariants() {
			for _, block := range []int{2, 3, 7, 64} {
				if CountWith(g, Options{Invariant: inv, BlockSize: block}) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// relabeled returns g with V1 vertex u renamed p1[u] and V2 vertex v
// renamed p2[v].
func relabeled(g *graph.Bipartite, p1, p2 []int) *graph.Bipartite {
	b := graph.NewBuilder(g.NumV1(), g.NumV2())
	for _, e := range g.Edges() {
		b.AddEdge(p1[e.U], p2[e.V])
	}
	return b.Build()
}

// Relabeling, random or by degree, must not change the count.
func TestQuickOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 12)
		want := dense.SpecCount(d)
		twin, _, _ := g.DegreeOrdered()
		for _, h := range []*graph.Bipartite{relabeled(g, rng.Perm(g.NumV1()), rng.Perm(g.NumV2())), twin} {
			if CountWith(h, Options{Invariant: Inv2}) != want {
				return false
			}
			if CountWith(h, Options{Invariant: Inv7, Threads: 3}) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCountSpGEMMMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 12)
		return CountSpGEMM(g) == dense.SpecCount(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWedgeCountMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 12)
		w1, w2 := WedgeCount(g)
		return w1 == dense.SpecWedges(d) && w2 == dense.SpecWedges(d.Transpose())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCaterpillarsAndClustering(t *testing.T) {
	k22 := gen.CompleteBipartite(2, 2)
	if got := Caterpillars(k22); got != 4 {
		t.Fatalf("Caterpillars(K2,2) = %d, want 4", got)
	}
	if cc := ClusteringCoefficient(k22); cc != 1 {
		t.Fatalf("cc(K2,2) = %f, want 1", cc)
	}
	if cc := ClusteringCoefficient(gen.CompleteBipartite(4, 6)); cc != 1 {
		t.Fatalf("cc(K4,6) = %f, want 1", cc)
	}
	if cc := ClusteringCoefficient(gen.Star(5)); cc != 0 {
		t.Fatalf("cc(star) = %f, want 0", cc)
	}
	if cc := ClusteringCoefficient(gen.Cycle(6)); cc != 0 {
		t.Fatalf("cc(C12) = %f, want 0 (no butterflies)", cc)
	}
	// Clustering lies in [0, 1] on random graphs.
	g := gen.ErdosRenyi(40, 40, 0.2, 3)
	if cc := ClusteringCoefficient(g); cc < 0 || cc > 1 {
		t.Fatalf("cc out of range: %f", cc)
	}
}
