package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"butterfly/internal/gen"
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

// Present/RemoveEdge must keep both compacted directions consistent:
// every surviving edge stays findable in its exposed and transpose
// rows, every removed edge disappears from both.
func TestWingPeelStateRemoveEdge(t *testing.T) {
	g := gen.PowerLawBipartite(40, 30, 220, 0.7, 0.7, 3)
	adj := g.Adj()
	nnz := int(adj.NNZ())
	s := NewWingPeelState(g)
	rng := rand.New(rand.NewSource(7))
	removed := make([]bool, nnz)
	for _, e := range rng.Perm(nnz)[:nnz/2] {
		if !s.Present(int64(e)) {
			t.Fatalf("edge %d missing before removal", e)
		}
		s.RemoveEdge(int64(e))
		removed[e] = true
	}
	for e := 0; e < nnz; e++ {
		if s.Present(int64(e)) == removed[e] {
			t.Fatalf("edge %d: Present=%v, removed=%v", e, s.Present(int64(e)), removed[e])
		}
	}
	// Each exposed row must hold exactly the surviving edges of that row,
	// with matching columns.
	for u := 0; u < adj.R; u++ {
		want := map[int64]int32{}
		base := adj.Ptr[u]
		for k, v := range adj.Row(u) {
			if e := base + int64(k); !removed[e] {
				want[e] = v
			}
		}
		cols, eids := s.r.seg(int32(u))
		if len(eids) != len(want) {
			t.Fatalf("row %d: %d entries, want %d", u, len(eids), len(want))
		}
		for i, e := range eids {
			if v, ok := want[e]; !ok || v != cols[i] {
				t.Fatalf("row %d: unexpected entry (e=%d col=%d)", u, e, cols[i])
			}
		}
	}
	// Transpose rows likewise: every surviving edge appears under its
	// secondary endpoint with the right exposed endpoint.
	var tentries int
	for v := 0; v < g.NumV2(); v++ {
		cols, eids := s.t.seg(int32(v))
		tentries += len(eids)
		for i, e := range eids {
			if removed[e] {
				t.Fatalf("trow %d: removed edge %d still present", v, e)
			}
			if s.edgeV[e] != int32(v) || s.edgeU[e] != cols[i] {
				t.Fatalf("trow %d: edge %d endpoints (%d,%d) vs entry col %d",
					v, e, s.edgeU[e], s.edgeV[e], cols[i])
			}
		}
	}
	if tentries != nnz-nnz/2 {
		t.Fatalf("transpose holds %d edges, want %d", tentries, nnz-nnz/2)
	}
}

// transposeEdgeMap must invert the CSR/CSC correspondence exactly.
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
			e := tmap[base+int64(k)]
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
// every V1 vertex, so the two sweep directions differ sharply in cost.
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

// randWingRound splits g's edges at random into dead (already removed
// from s), this round's batch, and survivors, and returns the batch
// with the pre-batch supports and the post-batch supports (recounted on
// rebuilt subgraphs).
func randWingRound(rng *rand.Rand, g *graph.Bipartite, s *WingPeelState) (batch []int64, alive, inBatch []bool, sup, want []int64) {
	nnz := int(g.NumEdges())
	alive = make([]bool, nnz)   // true = survives the batch
	inBatch = make([]bool, nnz) // true = peeled by this batch
	for e := 0; e < nnz; e++ {
		switch rng.Intn(4) {
		case 0: // dead from an earlier round: already compacted away
			s.RemoveEdge(int64(e))
		case 1:
			inBatch[e] = true
			batch = append(batch, int64(e))
		default:
			alive[e] = true
		}
	}
	sup = make([]int64, nnz)
	supportInto(sup, g, func(e int) bool { return alive[e] || inBatch[e] })
	want = make([]int64, nnz)
	supportInto(want, g, func(e int) bool { return alive[e] })
	return batch, alive, inBatch, sup, want
}

// WingStateDeltaBatch must compute exactly the difference between the
// edge supports of the pre-batch subgraph and the post-batch subgraph,
// for any sequence of earlier removals and any batch drawn from the
// survivors — whichever endpoint each dying edge is swept from, on
// plain random graphs and on graphs with a hub on either side.
func TestQuickWingStateDeltaBatchExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randHubGraph(rng, 9, rng.Intn(3))
		nnz := int(g.NumEdges())
		s := NewWingPeelState(g)
		batch, alive, inBatch, sup, want := randWingRound(rng, g, s)
		if len(batch) == 0 {
			return true
		}
		dirty := make([]int32, nnz)
		var touched []int64
		for _, dir := range []sweepDir{sweepCheaper, sweepFromU, sweepFromV} {
			for _, threads := range []int{1, 3} {
				got := append([]int64(nil), sup...)
				touched = touched[:0]
				wingStateDeltaBatch(s, batch, alive, inBatch, got, dirty, &touched, threads, nil, dir)
				for _, f := range touched {
					dirty[f] = 0
				}
				for e := 0; e < nnz; e++ {
					if alive[e] && got[e] != want[e] {
						t.Logf("seed %d dir %d threads %d: edge %d support %d, want %d",
							seed, dir, threads, e, got[e], want[e])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// On a skewed power-law graph the cost model must actually choose: some
// edges are cheaper to sweep from their exposed endpoint, some from
// their secondary one.
func TestWingSweepTakesBothDirections(t *testing.T) {
	g := gen.PowerLawBipartite(300, 200, 2000, 0.8, 0.6, 11)
	s := NewWingPeelState(g)
	var fromU, fromV int
	for e := range s.edgeU {
		if s.fromU(s.edgeU[e], s.edgeV[e]) {
			fromU++
		} else {
			fromV++
		}
	}
	if fromU == 0 || fromV == 0 {
		t.Fatalf("sweeps from u: %d, from v: %d; want both directions taken", fromU, fromV)
	}
}

// The parallel path must hand back, through the per-worker touched
// shares, every edge it decremented exactly once, leave dirty set for
// exactly those edges, and produce the sequential path's supports. Run
// it under -race: the shares are written without a lock.
func TestQuickWingStateDeltaParallelTouched(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.PowerLawBipartite(60, 50, 400, 0.7, 0.7, seed)
		nnz := int(g.NumEdges())
		s := NewWingPeelState(g)
		batch, alive, inBatch, sup, _ := randWingRound(rng, g, s)
		if len(batch) < minDeltaParallelBatch {
			return true
		}
		seq := append([]int64(nil), sup...)
		dirty := make([]int32, nnz)
		var touched []int64
		WingStateDeltaBatch(s, batch, alive, inBatch, seq, dirty, &touched, 1, nil)
		for _, f := range touched {
			dirty[f] = 0
		}
		arena := NewArena()
		for _, threads := range []int{2, 3, 8} {
			got := append([]int64(nil), sup...)
			touched = touched[:0]
			WingStateDeltaBatch(s, batch, alive, inBatch, got, dirty, &touched, threads, arena)
			if !slices.Equal(got, seq) {
				t.Logf("seed %d threads %d: supports differ from the sequential path", seed, threads)
				return false
			}
			if !touchedExact(touched, dirty, func(f int64) bool { return got[f] != sup[f] }) {
				t.Logf("seed %d threads %d: touched list or dirty marks wrong", seed, threads)
				return false
			}
			for _, f := range touched {
				dirty[f] = 0
			}
		}
		return arena.Size() >= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// On K(20,20) every peeled vertex or edge destroys butterflies of the
// same survivors, so at threads 3 every worker's partial vector hits
// the same ids and the merge must add them all: both delta kernels must
// equal the one-thread recount of the surviving graph, and hand back
// each changed id once. CI runs this under -race.
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
	state := NewWingPeelState(g)
	aliveE, inBatch := make([]bool, nnz), make([]bool, nnz)
	var batchE []int64
	for e := 0; e < nnz; e++ {
		if state.edgeU[e] < 10 {
			inBatch[e] = true
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
	WingStateDeltaBatch(state, batchE, aliveE, inBatch, sup, dirtyE, &touchedE, 3, arena)
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

// A warm wing-state round allocates nothing on the sequential path —
// the same per-round guarantee as the tip kernel, which is what lets
// the delta engine's total work track the butterflies destroyed.
func TestWingStateDeltaSteadyStateZeroAlloc(t *testing.T) {
	g := gen.PowerLawBipartite(500, 400, 3000, 0.7, 0.7, 12)
	nnz := int(g.NumEdges())
	s := NewWingPeelState(g)
	alive := make([]bool, nnz)
	inBatch := make([]bool, nnz)
	var batch []int64
	for e := 0; e < nnz; e++ {
		if e%9 == 0 {
			inBatch[e] = true
			batch = append(batch, int64(e))
		} else {
			alive[e] = true
		}
	}
	sup := make([]int64, nnz)
	EdgeSupportInto(sup, g, 1, nil)
	dirty := make([]int32, nnz)
	touched := make([]int64, 0, nnz)
	arena := NewArena()

	// Warm the arena workspace and the touched capacity.
	WingStateDeltaBatch(s, batch, alive, inBatch, sup, dirty, &touched, 1, arena)
	for _, f := range touched {
		dirty[f] = 0
	}
	allocs := testing.AllocsPerRun(20, func() {
		touched = touched[:0]
		WingStateDeltaBatch(s, batch, alive, inBatch, sup, dirty, &touched, 1, arena)
		for _, f := range touched {
			dirty[f] = 0
		}
	})
	if allocs != 0 {
		t.Fatalf("warm wing-state round allocated %.1f objects/op, want 0", allocs)
	}
}
