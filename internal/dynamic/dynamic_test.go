package dynamic

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"butterfly/internal/core"
	"butterfly/internal/gen"
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

func TestEmptyCounter(t *testing.T) {
	c := New(3, 4)
	if c.Count() != 0 || c.NumEdges() != 0 || c.NumV1() != 3 || c.NumV2() != 4 {
		t.Fatal("empty counter wrong")
	}
	if c.HasEdge(0, 0) || c.HasEdge(-1, 0) || c.HasEdge(0, 9) {
		t.Fatal("phantom edges")
	}
	for _, d := range [][2]int{{3, 4}, {0, 3}, {3, 0}, {0, 0}} {
		s := New(d[0], d[1]).Snapshot()
		if s.NumV1() != d[0] || s.NumV2() != d[1] || s.NumEdges() != 0 || s.Validate() != nil {
			t.Fatalf("empty %dx%d snapshot: %s", d[0], d[1], s)
		}
	}
}

// Memory follows the edges held, not the declared vertex sets: a
// counter over a million vertices a side that takes a thousand edges
// allocates well under a megabyte.
func TestNewAllocatesPerEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := New(1_000_000, 1_000_000)
	for i := 0; i < 1000; i++ {
		c.InsertEdge(rng.Intn(1_000_000), rng.Intn(1_000_000))
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("New(1e6, 1e6) and 1000 inserts allocated %d bytes, want < 1 MiB", got)
	}
	if c.NumEdges() != 1000 {
		t.Fatalf("NumEdges = %d, want 1000", c.NumEdges())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(-1, 2)
}

func TestInsertBuildsButterfly(t *testing.T) {
	c := New(2, 2)
	for _, e := range [][2]int{{0, 0}, {0, 1}, {1, 0}} {
		added, delta := c.InsertEdge(e[0], e[1])
		if !added || delta != 0 {
			t.Fatalf("edge %v: added=%v delta=%d", e, added, delta)
		}
	}
	added, delta := c.InsertEdge(1, 1) // closes K(2,2)
	if !added || delta != 1 {
		t.Fatalf("closing edge: added=%v delta=%d", added, delta)
	}
	if c.Count() != 1 {
		t.Fatalf("Count = %d", c.Count())
	}
}

func TestDuplicateInsertNoop(t *testing.T) {
	c := New(2, 2)
	c.InsertEdge(0, 0)
	added, delta := c.InsertEdge(0, 0)
	if added || delta != 0 || c.NumEdges() != 1 {
		t.Fatal("duplicate insert not a no-op")
	}
}

func TestDeleteMissingNoop(t *testing.T) {
	c := New(2, 2)
	removed, delta := c.DeleteEdge(1, 1)
	if removed || delta != 0 {
		t.Fatal("missing delete not a no-op")
	}
}

func TestInsertDeleteRoundTrip(t *testing.T) {
	c := FromGraph(gen.CompleteBipartite(3, 3))
	if c.Count() != 9 {
		t.Fatalf("K(3,3) count = %d, want 9", c.Count())
	}
	removed, delta := c.DeleteEdge(0, 0)
	if !removed || delta != 4 {
		// edge (0,0) in K(3,3) supports (3-1)(3-1) = 4 butterflies
		t.Fatalf("delete: removed=%v delta=%d", removed, delta)
	}
	if c.Count() != 5 {
		t.Fatalf("count after delete = %d, want 5", c.Count())
	}
	added, delta := c.InsertEdge(0, 0)
	if !added || delta != 4 || c.Count() != 9 {
		t.Fatalf("reinsert: delta=%d count=%d", delta, c.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	c := New(2, 2)
	for name, fn := range map[string]func(){
		"insert": func() { c.InsertEdge(2, 0) },
		"delete": func() { c.DeleteEdge(0, -1) },
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

// The core property: after any random mutation sequence, the
// maintained count equals a fresh static recount of the snapshot.
func TestQuickCounterMatchesStaticRecount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := rng.Intn(8)+2, rng.Intn(8)+2
		c := New(m, n)
		for step := 0; step < 60; step++ {
			u, v := rng.Intn(m), rng.Intn(n)
			if rng.Intn(3) == 0 {
				c.DeleteEdge(u, v)
			} else {
				c.InsertEdge(u, v)
			}
		}
		return c.Count() == core.CountAuto(c.Snapshot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Deltas must telescope: Σ insert deltas − Σ delete deltas == count.
func TestQuickDeltasTelescope(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := rng.Intn(7)+2, rng.Intn(7)+2
		c := New(m, n)
		var running int64
		for step := 0; step < 50; step++ {
			u, v := rng.Intn(m), rng.Intn(n)
			if rng.Intn(3) == 0 {
				_, d := c.DeleteEdge(u, v)
				running -= d
			} else {
				_, d := c.InsertEdge(u, v)
				running += d
			}
		}
		return running == c.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// seedByInserts is the insert-by-insert seed FromGraph once was: the
// initial count comes out of the update rule itself, edge by edge.
// It stays as the oracle that ties the incremental rule to the static
// count FromGraph now takes.
func seedByInserts(g *graph.Bipartite) *Counter {
	c := New(g.NumV1(), g.NumV2())
	for _, e := range g.Edges() {
		c.InsertEdge(int(e.U), int(e.V))
	}
	return c
}

// FromGraph's static seed agrees with the insert-by-insert seed on
// count, edge set and per-vertex deltas, over the scale-50 stand-ins
// and random graphs: the update rule, applied |E| times, reproduces
// the static count.
func TestFromGraphMatchesStatic(t *testing.T) {
	var gs []*graph.Bipartite
	for _, name := range gen.PaperDatasetNames() {
		g, err := gen.ScaledPaperDataset(name, 50)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gs = append(gs,
			gen.ErdosRenyi(rng.Intn(20)+1, rng.Intn(20)+1, rng.Float64(), seed),
			gen.PowerLawBipartite(80, 60, 400, 0.7, 0.7, seed))
	}
	for i, g := range gs {
		c, ref := FromGraph(g), seedByInserts(g)
		if c.Count() != ref.Count() || c.NumEdges() != ref.NumEdges() || c.NumEdges() != g.NumEdges() {
			t.Fatalf("graph %d (%s): FromGraph count %d over %d edges, insert seed %d over %d",
				i, g, c.Count(), c.NumEdges(), ref.Count(), ref.NumEdges())
		}
		if s := c.Snapshot(); s != g {
			t.Fatalf("graph %d: FromGraph's first snapshot is not its seed", i)
		}
		if !sameArrays(ref.Snapshot(), g) || !sameArrays(rebuild(c), g) {
			t.Fatalf("graph %d: neighbor sets differ from the seed graph", i)
		}
	}
}

// rebuild materializes c from scratch the way Snapshot did before it
// patched: every neighbor row copied into a CSR that FromRows sorts.
func rebuild(c *Counter) *graph.Bipartite {
	a := &sparse.CSR{R: c.m, C: c.n, Ptr: make([]int64, c.m+1)}
	for u := 0; u < c.m; u++ {
		a.Col = append(a.Col, c.adj[int32(u)]...)
		a.Ptr[u+1] = int64(len(a.Col))
	}
	return graph.FromRows(a)
}

// sameArrays reports whether two graphs hold byte-identical Ptr and
// Col arrays in both orientations.
func sameArrays(g, h *graph.Bipartite) bool {
	eq := func(a, b *sparse.CSR) bool {
		return a.R == b.R && a.C == b.C && slices.Equal(a.Ptr, b.Ptr) && slices.Equal(a.Col, b.Col)
	}
	return eq(g.Adj(), h.Adj()) && eq(g.AdjT(), h.AdjT())
}

// checksum folds both orientations' arrays of g into one value.
func checksum(g *graph.Bipartite) uint64 {
	h := fnv.New64a()
	for _, a := range []*sparse.CSR{g.Adj(), g.AdjT()} {
		binary.Write(h, binary.LittleEndian, a.Ptr) //nolint:errcheck // hash writes cannot fail
		binary.Write(h, binary.LittleEndian, a.Col) //nolint:errcheck
	}
	return h.Sum64()
}

// applyBatch applies one random batch to c. Its ops mix plain inserts
// and deletes with in-batch insert-then-delete and delete-then-insert
// of one edge, duplicate inserts and deletes of absent edges. A
// non-negative hub sends most ops through V1 row hub. Every op picks
// its V1 vertex from [lo, hiU) and its V2 vertex from [lo, hiV).
func applyBatch(rng *rand.Rand, c *Counter, ops, hub, lo, hiU, hiV int) {
	pick := func() (int, int) {
		u, v := lo+rng.Intn(hiU-lo), lo+rng.Intn(hiV-lo)
		if hub >= 0 && rng.Intn(3) != 0 {
			u = hub
		}
		return u, v
	}
	for i := 0; i < ops; i++ {
		u, v := pick()
		switch rng.Intn(6) {
		case 0, 1:
			c.InsertEdge(u, v)
		case 2:
			c.DeleteEdge(u, v)
		case 3: // insert then delete within the batch
			c.InsertEdge(u, v)
			c.DeleteEdge(u, v)
		case 4: // delete then re-insert within the batch
			c.DeleteEdge(u, v)
			c.InsertEdge(u, v)
		case 5: // duplicate insert
			c.InsertEdge(u, v)
			c.InsertEdge(u, v)
		}
	}
}

// After every random batch, the patched snapshot equals a from-scratch
// build of the counter's neighbor sets, array for array, and no
// earlier snapshot changed. Counters start empty (New) or seeded
// (FromGraph); some trials leave the first and last row of each side
// empty, some route most ops through one hub row, and some batches
// edit more than half of the graph's edges.
func TestQuickSnapshotPatchMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := rng.Intn(30)+1, rng.Intn(30)+1
		var c *Counter
		if rng.Intn(2) == 0 {
			c = New(m, n)
		} else {
			c = FromGraph(gen.ErdosRenyi(m, n, rng.Float64(), seed))
		}
		lo, hiU, hiV := 0, m, n
		if m > 2 && n > 2 && rng.Intn(3) == 0 {
			lo, hiU, hiV = 1, m-1, n-1
		}
		hub := -1
		if rng.Intn(3) == 0 {
			hub = lo + rng.Intn(hiU-lo)
		}
		var published []*graph.Bipartite
		var sums []uint64
		for b := 0; b < 12; b++ {
			ops := rng.Intn(8)
			if rng.Intn(4) == 0 {
				ops = int(c.NumEdges()) + m*n/2
			}
			applyBatch(rng, c, ops, hub, lo, hiU, hiV)
			s := c.Snapshot()
			if s.Validate() != nil || !sameArrays(s, rebuild(c)) || s.NumEdges() != c.NumEdges() {
				t.Logf("seed %d batch %d: patched snapshot differs from rebuild", seed, b)
				return false
			}
			published, sums = append(published, s), append(sums, checksum(s))
		}
		for i, g := range published {
			if checksum(g) != sums[i] {
				t.Logf("seed %d: snapshot %d changed after publication", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A batch with no net effect publishes the previous graph itself, so
// its cached degree profile and relayout twin carry over.
func TestSnapshotWithoutNetEditsSharesGraph(t *testing.T) {
	g := gen.CompleteBipartite(3, 4)
	c := FromGraph(g)
	c.InsertEdge(0, 0) // duplicate
	c.DeleteEdge(1, 1) // real delete …
	c.InsertEdge(1, 1) // … undone
	if c.Snapshot() != g {
		t.Fatal("a batch with no net edits built a new graph")
	}
	c.DeleteEdge(2, 3)
	s := c.Snapshot()
	if s == g || s.HasEdge(2, 3) || !g.HasEdge(2, 3) {
		t.Fatal("a real delete was not published, or reached the old graph")
	}
	if c.Snapshot() != s {
		t.Fatal("a second snapshot without mutation built a new graph")
	}
	e := New(2, 2)
	e.InsertEdge(1, 1)
	e.DeleteEdge(1, 1)
	e.DeleteEdge(0, 0) // absent
	if first := e.Snapshot(); first.NumEdges() != 0 || e.Snapshot() != first {
		t.Fatal("an empty counter's snapshots differ")
	}
}

// FuzzSnapshotPatch decodes fuzz bytes into batches of inserts and
// deletes on a small counter and checks every patched snapshot against
// a from-scratch build. The first two bytes pick the dimensions, up to
// 16×16, and the third whether the counter starts empty or seeded with
// a dense graph. Each following byte pair is one op: the high bit of
// the first byte deletes instead of inserting, and a zero first byte
// ends the batch with a snapshot instead.
func FuzzSnapshotPatch(f *testing.F) {
	f.Add([]byte{4, 4, 0, 1, 1, 0x81, 1, 0, 0, 2, 3})
	f.Add([]byte{16, 16, 1, 0x85, 5, 5, 5, 0, 0, 0x85, 5})
	f.Add([]byte{1, 1, 0, 1, 0, 0x81, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m, n := int(data[0])%16+1, int(data[1])%16+1
		c := New(m, n)
		if data[2]%2 == 1 {
			c = FromGraph(gen.ErdosRenyi(m, n, 0.6, int64(data[2])))
		}
		check := func() {
			if s := c.Snapshot(); !sameArrays(s, rebuild(c)) {
				t.Fatalf("patched snapshot differs from rebuild: %v vs %v", s.Edges(), rebuild(c).Edges())
			}
		}
		for i := 3; i+1 < len(data); i += 2 {
			if data[i] == 0 {
				check()
				continue
			}
			u, v := int(data[i]&0x7f)%m, int(data[i+1])%n
			if data[i]&0x80 != 0 {
				c.DeleteEdge(u, v)
			} else {
				c.InsertEdge(u, v)
			}
		}
		check()
		if c.Count() != core.CountAuto(c.Snapshot()) {
			t.Fatalf("count %d, static recount %d", c.Count(), core.CountAuto(c.Snapshot()))
		}
	})
}

// BenchmarkInsertDelete times one update: an insert of a random pair
// and a delete of a random present edge alternate, so |E| holds steady
// and every delete removes an edge.
func BenchmarkInsertDelete(b *testing.B) {
	g := gen.PowerLawBipartite(5000, 4000, 30000, 0.7, 0.7, 11)
	c := FromGraph(g)
	live := g.Edges()
	rng := rand.New(rand.NewSource(12))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			u, v := rng.Intn(5000), rng.Intn(4000)
			if added, _ := c.InsertEdge(u, v); added {
				live = append(live, graph.Edge{U: int32(u), V: int32(v)})
			}
		} else {
			j := rng.Intn(len(live))
			c.DeleteEdge(int(live[j].U), int(live[j].V))
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
}

// BenchmarkDynamicSnapshot times one serving-shaped mutate: a batch
// of 4 inserts of absent edges and 2 deletes of earlier inserts, then
// the Snapshot that publishes it. It runs on the scale-50 stand-ins
// and github at scale 4 (110k edges).
func BenchmarkDynamicSnapshot(b *testing.B) {
	type input struct {
		name  string
		scale int
	}
	var inputs []input
	for _, name := range gen.PaperDatasetNames() {
		inputs = append(inputs, input{name, 50})
	}
	inputs = append(inputs, input{"github", 4})
	for _, in := range inputs {
		g, err := gen.ScaledPaperDataset(in.name, in.scale)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s@%d", in.name, in.scale), func(b *testing.B) {
			c := FromGraph(g)
			rng := rand.New(rand.NewSource(1))
			var live [][2]int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < 4; {
					u, v := rng.Intn(g.NumV1()), rng.Intn(g.NumV2())
					if added, _ := c.InsertEdge(u, v); added {
						live = append(live, [2]int{u, v})
						k++
					}
				}
				for k := 0; k < 2; k++ {
					j := rng.Intn(len(live))
					c.DeleteEdge(live[j][0], live[j][1])
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				c.Snapshot()
			}
		})
	}
}
