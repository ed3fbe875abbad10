package baseline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"butterfly/internal/dense"
	"butterfly/internal/gen"
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

func randGraphAndDense(rng *rand.Rand, maxSide int) (*dense.Matrix, *graph.Bipartite) {
	m := rng.Intn(maxSide) + 1
	n := rng.Intn(maxSide) + 1
	d := dense.New(m, n)
	p := 0.2 + 0.6*rng.Float64()
	for i := range d.Data {
		if rng.Float64() < p {
			d.Data[i] = 1
		}
	}
	g, err := graph.FromCSR(sparse.FromDense(d, true))
	if err != nil {
		panic(err)
	}
	return d, g
}

func TestQuickWedgeHashMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 12)
		return CountWedgeHash(g) == dense.SpecCount(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickVertexPriorityMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 12)
		return CountVertexPriority(g) == dense.SpecCount(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEnumerateMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 10)
		return CountEnumerate(g) == dense.SpecCount(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBaselinesOnClosedForms(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Bipartite
		want int64
	}{
		{"K(2,2)", gen.CompleteBipartite(2, 2), 1},
		{"K(5,4)", gen.CompleteBipartite(5, 4), 60},
		{"star", gen.Star(8), 0},
		{"C4", gen.Cycle(2), 1},
		{"C10", gen.Cycle(5), 0},
		{"chain", gen.BicliqueChain(4, 2, 3), 4 * 3},
	}
	for _, c := range cases {
		if got := CountWedgeHash(c.g); got != c.want {
			t.Errorf("%s wedge-hash: %d, want %d", c.name, got, c.want)
		}
		if got := CountVertexPriority(c.g); got != c.want {
			t.Errorf("%s vertex-priority: %d, want %d", c.name, got, c.want)
		}
		if got := CountEnumerate(c.g); got != c.want {
			t.Errorf("%s enumerate: %d, want %d", c.name, got, c.want)
		}
	}
}

func TestListButterfliesOrderAndContent(t *testing.T) {
	g := gen.CompleteBipartite(3, 2) // butterflies: pairs of rows × the single column pair
	var got []Butterfly
	ListButterflies(g, func(b Butterfly) bool {
		got = append(got, b)
		return true
	})
	want := []Butterfly{
		{0, 1, 0, 1},
		{0, 2, 0, 1},
		{1, 2, 0, 1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d butterflies, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("butterfly %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Canonical form invariants.
	for _, b := range got {
		if b.U1 >= b.U2 || b.W1 >= b.W2 {
			t.Errorf("non-canonical butterfly %+v", b)
		}
	}
}

func TestListButterfliesEarlyStop(t *testing.T) {
	g := gen.CompleteBipartite(4, 4)
	calls := 0
	ListButterflies(g, func(Butterfly) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("early stop after %d calls, want 3", calls)
	}
}

func TestVerifyAll(t *testing.T) {
	g := gen.PowerLawBipartite(80, 60, 400, 0.7, 0.7, 3)
	if err := VerifyAll(g); err != nil {
		t.Fatal(err)
	}
}

func TestQuickVerifyAll(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 10)
		return VerifyAll(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
