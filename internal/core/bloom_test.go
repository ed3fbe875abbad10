package core

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"butterfly/internal/gen"
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

// transposeEdgeMap must map A's edge order onto Aᵀ's exactly.
func TestTransposeEdgeMap(t *testing.T) {
	g := gen.PowerLawBipartite(60, 50, 400, 0.7, 0.7, 5)
	adj, adjT := g.Adj(), g.AdjT()
	tmap := transposeEdgeMap(g)
	if len(tmap) != int(adj.NNZ()) {
		t.Fatalf("tmap length %d, want %d", len(tmap), adj.NNZ())
	}
	for v := 0; v < adjT.R; v++ {
		base := adjT.Ptr[v]
		for k, u := range adjT.Row(v) {
			e := int64(tmap[base+int64(k)])
			if got := adj.Col[e]; int(got) != v {
				t.Fatalf("tmap[%d]: edge %d has column %d, want %d", base+int64(k), e, got, v)
			}
			if e < adj.Ptr[u] || e >= adj.Ptr[u+1] {
				t.Fatalf("tmap[%d]: edge %d outside row %d", base+int64(k), e, u)
			}
		}
	}
}

// randHubGraph is randGraphAndDense with an optional hub: shape 1 joins
// a random V1 vertex to every V2 vertex, shape 2 a random V2 vertex to
// every V1 vertex, so the priority order puts a whole side's wedges
// behind one start.
func randHubGraph(rng *rand.Rand, maxSide, shape int) *graph.Bipartite {
	d := randDense(rng, rng.Intn(maxSide)+1, rng.Intn(maxSide)+1, 0.15+0.5*rng.Float64())
	switch shape {
	case 1:
		u := rng.Intn(d.Rows)
		for v := 0; v < d.Cols; v++ {
			d.Set(u, v, 1)
		}
	case 2:
		v := rng.Intn(d.Cols)
		for u := 0; u < d.Rows; u++ {
			d.Set(u, v, 1)
		}
	}
	g, err := graph.FromCSR(sparse.FromDense(d, true))
	if err != nil {
		panic(err)
	}
	return g
}

// checkBloomIndex reports whether the index holds g's butterflies
// (Σ_B C(k_B, 2) = CountWith) and seeds EdgeSupportInto's supports.
func checkBloomIndex(t *testing.T, name string, g *graph.Bipartite, x *BloomIndex) bool {
	t.Helper()
	if got, want := x.Butterflies(), CountWith(g, Options{}); got != want {
		t.Logf("%s: Σ C(k, 2) = %d, count %d", name, got, want)
		return false
	}
	got := make([]int64, g.NumEdges())
	x.SupportsInto(got)
	if want := EdgeSupportInto(nil, g, 1, nil).Val; !slices.Equal(got, want) {
		t.Logf("%s: index seeds differ from EdgeSupportInto", name)
		return false
	}
	return true
}

// Every butterfly lies in exactly one bloom, and every edge's support
// is Σ_{B∋e} (k_B − 1), on random graphs with and without a hub.
func TestQuickBloomIndexExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randHubGraph(rng, 12, rng.Intn(3))
		return checkBloomIndex(t, "random", g, NewBloomIndex(g, 1+rng.Intn(3), nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The same identities on the five paper stand-ins at scale 10.
func TestBloomIndexOnStandIns(t *testing.T) {
	for _, name := range gen.PaperDatasetNames() {
		g, err := gen.ScaledPaperDataset(name, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !checkBloomIndex(t, name, g, NewBloomIndex(g, 2, nil)) {
			t.Fatalf("%s: bloom index disagrees with the count or the supports", name)
		}
	}
}

// The layout does not depend on the thread count: builds at one
// thread, at NumCPU and at three workers are identical field by field.
func TestBloomIndexThreadsIdentical(t *testing.T) {
	graphs := []*graph.Bipartite{gen.PowerLawBipartite(300, 200, 2000, 0.8, 0.6, 11)}
	for _, name := range gen.PaperDatasetNames() {
		g, err := gen.ScaledPaperDataset(name, 10)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for i, g := range graphs {
		want := NewBloomIndex(g, 1, nil)
		for _, threads := range []int{runtime.NumCPU(), 3} {
			got := NewBloomIndex(g, threads, NewArena())
			if !slices.Equal(got.blooms, want.blooms) || !slices.Equal(got.wedge, want.wedge) ||
				!slices.Equal(got.loff, want.loff) || !slices.Equal(got.link, want.link) {
				t.Fatalf("graph %d: the index built at %d threads differs from the one-thread build", i, threads)
			}
		}
	}
}

// The index's memory follows the priority-obeying wedges, not the
// edges. K_{n,n} is the worst case: every V1 vertex outranks every V2
// vertex, so the V1 vertex of rank i starts n − 1 − i blooms of n
// wedges: n(n − 1)/2 blooms, n²(n − 1)/2 wedges, and
// 8n(n − 1) + 8(n² + 1) + 8n²(n − 1) bytes. On any graph the wedges
// number at most Σ_{(u,v)∈E} min(deg u, deg v), at most the smaller
// Σ deg² of the two sides.
func TestBloomIndexBytesOnCompleteBipartite(t *testing.T) {
	for _, n := range []int64{2, 3, 7, 30} {
		x := NewBloomIndex(gen.CompleteBipartite(int(n), int(n)), 2, nil)
		if got, want := int64(x.Blooms()), n*(n-1)/2; got != want {
			t.Errorf("K_{%d,%d}: %d blooms, want %d", n, n, got, want)
		}
		if got, want := x.Wedges(), n*n*(n-1)/2; got != want {
			t.Errorf("K_{%d,%d}: %d wedges, want %d", n, n, got, want)
		}
		if got, want := x.Bytes(), 8*n*(n-1)+8*(n*n+1)+8*n*n*(n-1); got != want {
			t.Errorf("K_{%d,%d}: %d bytes, want %d", n, n, got, want)
		}
	}

	graphs := []*graph.Bipartite{gen.PowerLawBipartite(300, 200, 2000, 0.8, 0.6, 11)}
	for _, name := range gen.PaperDatasetNames() {
		g, err := gen.ScaledPaperDataset(name, 10)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for i, g := range graphs {
		adj, adjT := g.Adj(), g.AdjT()
		var minDeg, sq1, sq2 int64
		for u := 0; u < adj.R; u++ {
			du := adj.Ptr[u+1] - adj.Ptr[u]
			sq1 += du * du
			for _, v := range adj.Row(u) {
				minDeg += min(du, adjT.Ptr[v+1]-adjT.Ptr[v])
			}
		}
		for v := 0; v < adjT.R; v++ {
			dv := adjT.Ptr[v+1] - adjT.Ptr[v]
			sq2 += dv * dv
		}
		x := NewBloomIndex(g, 1, nil)
		if w := x.Wedges(); w > minDeg || minDeg > min(sq1, sq2) {
			t.Errorf("graph %d: %d wedges, Σ_E min deg %d, Σ deg² %d and %d", i, w, minDeg, sq1, sq2)
		}
	}
}

// A build returns every workspace it borrowed to the arena at rest.
func TestBloomIndexArenaAtRest(t *testing.T) {
	g := gen.PowerLawBipartite(300, 200, 2000, 0.8, 0.7, 5)
	arena := NewArena()
	NewBloomIndex(g, 3, arena)
	if arena.Size() < 2 {
		t.Fatalf("arena holds %d workspaces; want the parallel build to have run", arena.Size())
	}
	for _, ws := range arena.free {
		if slices.ContainsFunc(ws.acc, func(c int32) bool { return c != 0 }) || len(ws.touched) > 0 {
			t.Fatal("a pooled workspace is not at rest")
		}
	}
}

// randWingRound splits g's edges at random into dead (peeled through x
// by an earlier round), this round's batch, and survivors. It returns
// the batch with the supports before it and the supports after it,
// recounted on rebuilt subgraphs.
func randWingRound(t *testing.T, rng *rand.Rand, g *graph.Bipartite, x *BloomIndex) (batch []int64, alive []bool, sup, want []int64) {
	nnz := int(g.NumEdges())
	alive = make([]bool, nnz) // true = survives the batch
	var dead []int64
	for e := 0; e < nnz; e++ {
		switch rng.Intn(4) {
		case 0:
			dead = append(dead, int64(e))
		case 1:
			batch = append(batch, int64(e))
		default:
			alive[e] = true
		}
	}
	present := slices.Clone(alive)
	for _, e := range batch {
		present[e] = true
	}
	sup = EdgeSupportInto(nil, g, 1, nil).Val
	dirty := make([]int32, nnz)
	var touched []int64
	x.PeelRound(dead, present, sup, dirty, &touched)
	want = make([]int64, nnz)
	supportInto(want, g, func(e int) bool { return present[e] })
	for e, ok := range present {
		if ok && sup[e] != want[e] {
			t.Fatalf("earlier round: edge %d support %d, recount %d", e, sup[e], want[e])
		}
	}
	supportInto(want, g, func(e int) bool { return alive[e] })
	return batch, alive, sup, want
}

// PeelRound must compute exactly the difference between the edge
// supports of the pre-batch subgraph and the post-batch subgraph, for
// any earlier round and any batch drawn from its survivors, and hand
// back each changed edge once — on plain random graphs and on graphs
// with a hub on either side.
func TestQuickWingStateDeltaBatchExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randHubGraph(rng, 9, rng.Intn(3))
		nnz := int(g.NumEdges())
		x := NewBloomIndex(g, 1, nil)
		batch, alive, sup, want := randWingRound(t, rng, g, x)
		before := slices.Clone(sup)
		dirty := make([]int32, nnz)
		var touched []int64
		x.PeelRound(batch, alive, sup, dirty, &touched)
		for e := 0; e < nnz; e++ {
			if alive[e] && sup[e] != want[e] {
				t.Logf("seed %d: edge %d support %d, want %d", seed, e, sup[e], want[e])
				return false
			}
		}
		if !touchedExact(touched, dirty, func(f int64) bool { return sup[f] != before[f] }) {
			t.Logf("seed %d: touched list or dirty marks wrong", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// On K(20,20) every peeled vertex or edge destroys butterflies of the
// same survivors. At threads 3 every tip worker's partial vector hits
// the same ids and the merge must add them all; every wing batch edge
// damages the same blooms. Both must equal the one-thread recount of
// the surviving graph and hand back each changed id once. CI runs this
// under -race.
func TestDeltaPartialsMergeOnCompleteBipartite(t *testing.T) {
	g := gen.CompleteBipartite(20, 20)
	arena := NewArena()

	// Tip: peel V1 vertices 0–9; each of 10–19 loses 10·C(20, 2).
	alive := make([]bool, g.NumV1())
	var batch []int32
	for u := range alive {
		if u < 10 {
			batch = append(batch, int32(u))
		} else {
			alive[u] = true
		}
	}
	s := vertexButterflies(g, SideV1)
	before := slices.Clone(s)
	want := vertexButterfliesMasked(g, SideV1, alive)
	dirty := make([]int32, len(s))
	var touched []int32
	TipDeltaBatch(g, SideV1, batch, alive, s, dirty, &touched, 3, arena)
	for u, ok := range alive {
		if ok && s[u] != want[u] {
			t.Fatalf("tip: vertex %d has %d butterflies, recount %d", u, s[u], want[u])
		}
	}
	if !touchedExact(touched, dirty, func(w int32) bool { return s[w] != before[w] }) {
		t.Fatal("tip: touched list or dirty marks wrong")
	}

	// Wing: peel every edge of V1 vertices 0–9.
	nnz := int(g.NumEdges())
	adj := g.Adj()
	x := NewBloomIndex(g, 3, arena)
	aliveE := make([]bool, nnz)
	var batchE []int64
	for e := 0; e < nnz; e++ {
		if e < int(adj.Ptr[10]) {
			batchE = append(batchE, int64(e))
		} else {
			aliveE[e] = true
		}
	}
	sup := EdgeSupportInto(nil, g, 1, nil).Val
	supBefore := slices.Clone(sup)
	wantE := make([]int64, nnz)
	supportInto(wantE, g, func(e int) bool { return aliveE[e] })
	dirtyE := make([]int32, nnz)
	var touchedE []int64
	x.PeelRound(batchE, aliveE, sup, dirtyE, &touchedE)
	for e, ok := range aliveE {
		if ok && sup[e] != wantE[e] {
			t.Fatalf("wing: edge %d has support %d, recount %d", e, sup[e], wantE[e])
		}
	}
	if !touchedExact(touchedE, dirtyE, func(f int64) bool { return sup[f] != supBefore[f] }) {
		t.Fatal("wing: touched list or dirty marks wrong")
	}
	if arena.Size() < 3 {
		t.Fatalf("arena holds %d workspaces; want the three-worker paths to have run", arena.Size())
	}
}

// touchedExact reports whether touched lists exactly the ids for which
// changed holds, each once, and dirty is set for exactly those ids.
func touchedExact[T int32 | int64](touched []T, dirty []int32, changed func(T) bool) bool {
	seen := make(map[T]bool, len(touched))
	for _, f := range touched {
		if seen[f] || !changed(f) {
			return false
		}
		seen[f] = true
	}
	for i, d := range dirty {
		f := T(i)
		if (d != 0) != seen[f] || changed(f) != seen[f] {
			return false
		}
	}
	return true
}

// A warm peeling round allocates nothing — the same per-round
// guarantee as the tip kernel, which is what lets the delta engine's
// total work track the blooms it damages. Between runs the test
// restores every bloom's record, which restores the index: each
// segment holds exactly its build-time wedges, in some order.
func TestWingStateDeltaSteadyStateZeroAlloc(t *testing.T) {
	g := gen.PowerLawBipartite(500, 400, 3000, 0.7, 0.7, 12)
	nnz := int(g.NumEdges())
	x := NewBloomIndex(g, 1, nil)
	b0 := slices.Clone(x.blooms)
	alive := make([]bool, nnz)
	var batch []int64
	for e := 0; e < nnz; e++ {
		if e%9 == 0 {
			batch = append(batch, int64(e))
		} else {
			alive[e] = true
		}
	}
	sup := make([]int64, nnz)
	x.SupportsInto(sup)
	dirty := make([]int32, nnz)
	touched := make([]int64, 0, nnz)

	round := func() {
		copy(x.blooms, b0)
		touched = touched[:0]
		x.PeelRound(batch, alive, sup, dirty, &touched)
		for _, f := range touched {
			dirty[f] = 0
		}
	}
	round() // warm the touched capacity
	if len(touched) == 0 {
		t.Fatal("the batch damaged no bloom")
	}
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("warm wing round allocated %.1f objects/op, want 0", allocs)
	}
}
