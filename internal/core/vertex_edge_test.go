package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"butterfly/internal/dense"
	"butterfly/internal/gen"
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

func TestQuickVertexButterfliesMatchSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 12)
		wantV1 := dense.SpecVertexButterflies(d)
		gotV1 := vertexButterflies(g, SideV1)
		for i := range wantV1 {
			if gotV1[i] != wantV1[i] {
				return false
			}
		}
		wantV2 := dense.SpecVertexButterfliesV2(d)
		gotV2 := vertexButterflies(g, SideV2)
		for i := range wantV2 {
			if gotV2[i] != wantV2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVertexButterfliesSumIsTwiceCount(t *testing.T) {
	g := gen.PowerLawBipartite(200, 150, 1500, 0.7, 0.7, 3)
	want := 2 * CountAuto(g)
	for _, side := range []Side{SideV1, SideV2} {
		var sum int64
		for _, v := range vertexButterflies(g, side) {
			sum += v
		}
		if sum != want {
			t.Errorf("side %v: Σs = %d, want %d", side, sum, want)
		}
	}
}

func TestQuickVertexButterfliesParallelMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 15)
		for _, side := range []Side{SideV1, SideV2} {
			want := vertexButterflies(g, side)
			got := make([]int64, len(want))
			VertexButterfliesMaskedInto(got, g, side, nil, 4, nil)
			for i := range want {
				if got[i] != want[i] {
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

// Thread counts below two take the one-thread path: on K(4,4) every
// vertex is in C(3,1)·C(4,2) = 18 butterflies, and every borrowed
// workspace goes back to the arena.
func TestVertexButterfliesParallelSingleThreadDelegates(t *testing.T) {
	g := gen.CompleteBipartite(4, 4)
	arena := NewArena()
	s := make([]int64, g.NumV1())
	for _, threads := range []int{-1, 0, 1} {
		VertexButterfliesMaskedInto(s, g, SideV1, nil, threads, arena)
		for u, c := range s {
			if c != 18 {
				t.Fatalf("threads=%d vertex %d: %d butterflies, want 18", threads, u, c)
			}
		}
		if arena.Size() != 1 {
			t.Fatalf("threads=%d: arena holds %d workspaces, want 1", threads, arena.Size())
		}
	}
}

// specVertexMasked is the dense spec's per-vertex vector of the side
// on the graph where inactive side vertices (nil: none) lose their
// edges.
func specVertexMasked(d *dense.Matrix, side Side, active []bool) []int64 {
	m := d.Clone()
	if side == SideV2 {
		m = m.Transpose()
	}
	for i, a := range active {
		if !a {
			for j := 0; j < m.Cols; j++ {
				m.Set(i, j, 0)
			}
		}
	}
	return dense.SpecVertexButterflies(m)
}

// Both seed sweeps and the chooser equal the dense spec on random
// graphs: both sides, with and without a mask, on one and three
// threads, with one output buffer and one arena reused across every
// call. Graphs reach 40 vertices a side, so the three-thread calls
// split into several chunks and merge partial vectors; CI runs this
// under -race.
func TestQuickVertexSeedSweepsMatchSpec(t *testing.T) {
	arena := NewArena()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 40)
		for _, side := range []Side{SideV1, SideV2} {
			n := g.NumV1()
			if side == SideV2 {
				n = g.NumV2()
			}
			active := make([]bool, n)
			for i := range active {
				active[i] = rng.Intn(3) > 0
			}
			s := make([]int64, n)
			for _, mask := range [][]bool{nil, active} {
				want := specVertexMasked(d, side, mask)
				for _, sweep := range []seedSweep{seedCheaper, seedSameSide, seedCrossSide} {
					for _, threads := range []int{1, 3} {
						vertexButterfliesInto(s, g, side, mask, threads, arena, sweep)
						if !slices.Equal(s, want) {
							t.Logf("seed %d side %v masked %v sweep %d threads %d: %v, want %v",
								seed, side, mask != nil, sweep, threads, s, want)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestVertexSeedOrientationOnStandIns runs both seed sweeps on each of
// the five paper stand-ins at scale 10, both sides: they agree vertex
// for vertex. Record-labels' V1 seed takes the cross sweep, which walks
// V2's rows at a twentieth of the wedge work.
func TestVertexSeedOrientationOnStandIns(t *testing.T) {
	arena := NewArena()
	for _, name := range gen.PaperDatasetNames() {
		g, err := gen.ScaledPaperDataset(name, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, side := range []Side{SideV1, SideV2} {
			n := g.NumV1()
			if side == SideV2 {
				n = g.NumV2()
			}
			same, cross := make([]int64, n), make([]int64, n)
			vertexButterfliesInto(same, g, side, nil, 2, arena, seedSameSide)
			vertexButterfliesInto(cross, g, side, nil, 2, arena, seedCrossSide)
			for u := range same {
				if same[u] != cross[u] {
					t.Fatalf("%s %v vertex %d: same-side sweep %d, cross sweep %d", name, side, u, same[u], cross[u])
				}
			}
		}
		if name == "record-labels" && !seedCross(vertexOrient(g, SideV1)) {
			t.Fatalf("record-labels V1 takes the same-side sweep, want the cross sweep")
		}
	}
}

// Masked per-vertex counts equal the spec on the induced subgraph where
// inactive exposed-side vertices lose their edges.
func TestQuickVertexButterfliesMaskedMatchesInduced(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 10)
		active := make([]bool, g.NumV1())
		masked := d.Clone()
		for i := range active {
			active[i] = rng.Intn(3) > 0
			if !active[i] {
				for j := 0; j < masked.Cols; j++ {
					masked.Set(i, j, 0)
				}
			}
		}
		want := dense.SpecVertexButterflies(masked)
		got := vertexButterfliesMasked(g, SideV1, active)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestVertexButterfliesMaskedLengthPanics(t *testing.T) {
	g := gen.CompleteBipartite(3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("bad mask length did not panic")
		}
	}()
	VertexButterfliesMaskedInto(make([]int64, 3), g, SideV1, make([]bool, 2), 1, nil)
}

// vertexButterflies is the one-thread unmasked per-vertex count into a
// fresh buffer.
func vertexButterflies(g *graph.Bipartite, side Side) []int64 {
	n := g.NumV1()
	if side == SideV2 {
		n = g.NumV2()
	}
	s := make([]int64, n)
	VertexButterfliesMaskedInto(s, g, side, nil, 1, nil)
	return s
}

// vertexButterfliesMasked is the one-thread masked per-vertex count
// into a fresh buffer.
func vertexButterfliesMasked(g *graph.Bipartite, side Side, active []bool) []int64 {
	s := make([]int64, len(active))
	VertexButterfliesMaskedInto(s, g, side, active, 1, nil)
	return s
}

// edgeSupport is the one-thread support sweep into a fresh buffer.
func edgeSupport(g *graph.Bipartite) *sparse.CSR {
	return EdgeSupportInto(nil, g, 1, nil)
}

func TestSideString(t *testing.T) {
	if SideV1.String() != "V1" || SideV2.String() != "V2" {
		t.Fatal("Side.String wrong")
	}
}

func TestQuickEdgeSupportMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 12)
		want := dense.SpecEdgeSupport(d)
		got := edgeSupport(g)
		return sparse.ToDense(got).Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEdgeSupportParallelMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 15)
		want := edgeSupport(g)
		got := EdgeSupportInto(nil, g, 4, nil)
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCountFromEdgeSupport(t *testing.T) {
	g := gen.BicliqueChain(3, 3, 3)
	want := CountAuto(g)
	if got := countFromEdgeSupport(edgeSupport(g)); got != want {
		t.Fatalf("CountFromEdgeSupport = %d, want %d", got, want)
	}
}

func TestCountFromEdgeSupportPanicsOnCorrupt(t *testing.T) {
	s := &sparse.CSR{R: 1, C: 1, Ptr: []int64{0, 1}, Col: []int32{0}, Val: []int64{3}}
	defer func() {
		if recover() == nil {
			t.Fatal("corrupt support sum did not panic")
		}
	}()
	countFromEdgeSupport(s)
}

func TestEdgeSupportCompleteBipartite(t *testing.T) {
	// In K(a,b) every edge supports C(a-1,1)·C(b-1,1) butterflies.
	a, b := 4, 5
	g := gen.CompleteBipartite(a, b)
	want := int64((a - 1) * (b - 1))
	s := edgeSupport(g)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			if got := s.At(u, v); got != want {
				t.Fatalf("support(%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}
}

// Orientation selection must be invisible: strongly asymmetric graphs
// in both directions produce supports identical to the spec and to the
// parallel sweep.
func TestEdgeSupportOrientationInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][2]int{{40, 5}, {5, 40}, {20, 20}} {
		d := randDense(rng, dims[0], dims[1], 0.4)
		g := graphOf(t, d)
		got := edgeSupport(g)
		if !sparse.ToDense(got).Equal(dense.SpecEdgeSupport(d)) {
			t.Fatalf("dims %v: support differs from spec", dims)
		}
		if !got.Equal(EdgeSupportInto(nil, g, 3, nil)) {
			t.Fatalf("dims %v: sequential differs from parallel", dims)
		}
		// Flat-order alignment with Adj (wing peeling depends on it).
		adj := g.Adj()
		if got.NNZ() != adj.NNZ() {
			t.Fatalf("dims %v: nnz mismatch", dims)
		}
		for k := range got.Col {
			if got.Col[k] != adj.Col[k] {
				t.Fatalf("dims %v: pattern misaligned at %d", dims, k)
			}
		}
	}
}

// TestEdgeSupportOrientationOnStandIns sweeps each of the five paper
// stand-ins at scale 10 from both sides: the V2 sweep, mapped back to
// A's flat order, equals the V1 sweep edge for edge, and EdgeSupportInto
// returns the same values whichever side it picks.
func TestEdgeSupportOrientationOnStandIns(t *testing.T) {
	for _, name := range gen.PaperDatasetNames() {
		g, err := gen.ScaledPaperDataset(name, 10)
		if err != nil {
			t.Fatal(err)
		}
		adj, adjT := g.Adj(), g.AdjT()
		fromV1 := make([]int64, adj.NNZ())
		fromV2 := make([]int64, adj.NNZ())
		supportSweep(fromV1, adj, adjT, 2, nil)
		supportSweep(fromV2, adjT, adj, 2, nil)
		for j, e := range transposeEdgeMap(g) {
			if fromV2[j] != fromV1[e] {
				t.Fatalf("%s edge %d: V2 sweep %d, V1 sweep %d", name, e, fromV2[j], fromV1[e])
			}
		}
		got := EdgeSupportInto(nil, g, 1, nil)
		for e := range fromV1 {
			if got.Val[e] != fromV1[e] {
				t.Fatalf("%s edge %d: EdgeSupportInto %d, V1 sweep %d", name, e, got.Val[e], fromV1[e])
			}
		}
	}
}

func TestQuickEdgeSupportSpGEMMMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 12)
		got := edgeSupportSpGEMM(g)
		if !sparse.ToDense(got).Equal(dense.SpecEdgeSupport(d)) {
			return false
		}
		// Flat alignment with the sweep implementation.
		return got.Equal(edgeSupport(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeSupportSpGEMMMedium(t *testing.T) {
	g := gen.PowerLawBipartite(400, 300, 2500, 0.7, 0.7, 13)
	if !edgeSupportSpGEMM(g).Equal(edgeSupport(g)) {
		t.Fatal("SpGEMM support differs from sweep support")
	}
}

func TestVertexButterfliesMaskedParallelDirect(t *testing.T) {
	g := gen.PowerLawBipartite(300, 250, 1800, 0.7, 0.7, 17)
	active := make([]bool, g.NumV1())
	for i := range active {
		active[i] = i%3 != 0
	}
	want := vertexButterfliesMasked(g, SideV1, active)
	got := make([]int64, g.NumV1())
	VertexButterfliesMaskedInto(got, g, SideV1, active, 4, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vertex %d: %d, want %d", i, got[i], want[i])
		}
	}
	// V2 side path.
	activeV2 := make([]bool, g.NumV2())
	for i := range activeV2 {
		activeV2[i] = true
	}
	wantV2 := vertexButterflies(g, SideV2)
	gotV2 := make([]int64, g.NumV2())
	VertexButterfliesMaskedInto(gotV2, g, SideV2, activeV2, 3, nil)
	for i := range wantV2 {
		if gotV2[i] != wantV2[i] {
			t.Fatal("V2 masked parallel differs from unmasked")
		}
	}
}

func TestVertexButterfliesMaskedParallelPanics(t *testing.T) {
	g := gen.CompleteBipartite(3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	VertexButterfliesMaskedInto(make([]int64, 3), g, SideV1, make([]bool, 2), 4, nil)
}

func TestCaterpillarsClosedForms(t *testing.T) {
	// K(2,2): 4 caterpillars; star: 0; path of 3 edges: 1.
	if got := Caterpillars(gen.CompleteBipartite(2, 2)); got != 4 {
		t.Fatalf("K22 caterpillars = %d", got)
	}
	if got := Caterpillars(gen.Star(7)); got != 0 {
		t.Fatalf("star caterpillars = %d", got)
	}
	b := graphBuilder3Path(t)
	if got := Caterpillars(b); got != 1 {
		t.Fatalf("P4 caterpillars = %d", got)
	}
}

// graphBuilder3Path builds u0–v0–u1–v1 (3 edges).
func graphBuilder3Path(t *testing.T) *graph.Bipartite {
	t.Helper()
	bl := graph.NewBuilder(2, 2)
	bl.AddEdge(0, 0)
	bl.AddEdge(1, 0)
	bl.AddEdge(1, 1)
	return bl.Build()
}

// edgeSupportSpGEMM computes the support matrix by executing equation
// (25) literally on the sparse substrate:
//
//	S_w = (AAᵀA − diag(AAᵀ)·1ᵀ − 1·diag(AᵀA)ᵀ + J) ∘ A
//
// The (AAᵀ)·A term is evaluated with a masked SpGEMM (only positions
// where A stores an edge are kept), so the dense-ish product never
// materializes; the rank-one correction terms reduce to the endpoint
// degrees at each stored edge. It is the "pure linear algebra" per-edge
// algorithm — a cross-validation of the accumulator sweep and the
// masked-product kernel, asymptotically equivalent but constant-factor
// heavier (it materializes AAᵀ).
func edgeSupportSpGEMM(g *graph.Bipartite) *sparse.CSR {
	adj, adjT := g.Adj(), g.AdjT()
	b := sparse.MxM(adj, adjT, sparse.PlusTimes)            // AAᵀ
	core := sparse.MxMMasked(b, adj, adj, sparse.PlusTimes) // (AAᵀA) ∘ A
	out := core.Clone()
	for u := 0; u < out.R; u++ {
		du := int64(g.DegreeV1(u))
		row := out.Row(u)
		vals := out.Val[out.Ptr[u]:out.Ptr[u+1]]
		for k, v := range row {
			vals[k] -= du + int64(g.DegreeV2(int(v))) - 1
		}
	}
	return out
}

// countFromEdgeSupport recovers ΞG from a support matrix: Σ/4.
func countFromEdgeSupport(s *sparse.CSR) int64 {
	total := sumValues(s)
	if total%4 != 0 {
		panic("core: edge-support sum not divisible by 4")
	}
	return total / 4
}

// sumValues returns the sum of a's stored values.
func sumValues(a *sparse.CSR) int64 {
	var s int64
	for _, v := range a.Val {
		s += v
	}
	return s
}
