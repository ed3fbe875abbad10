package core

import (
	"slices"
	"testing"

	"butterfly/internal/gen"
	"butterfly/internal/graph"
)

func TestArenaNilIsUsable(t *testing.T) {
	var a *Arena
	ws := a.get(10)
	if len(ws.acc) != 10 {
		t.Fatalf("nil arena workspace acc len %d", len(ws.acc))
	}
	a.put(ws) // must not panic
	if a.Size() != 0 {
		t.Fatal("nil arena reports nonzero size")
	}
}

func TestArenaRecyclesAndGrows(t *testing.T) {
	a := NewArena()
	ws := a.get(8)
	a.put(ws)
	if a.Size() != 1 {
		t.Fatalf("size %d after one put", a.Size())
	}
	ws2 := a.get(4)
	if ws2 != ws {
		t.Fatal("arena did not recycle the pooled workspace")
	}
	if len(ws2.acc) < 4 {
		t.Fatal("recycled workspace too small")
	}
	a.put(ws2)
	ws3 := a.get(100) // must grow
	if len(ws3.acc) < 100 {
		t.Fatalf("grown workspace acc len %d", len(ws3.acc))
	}
	for i, v := range ws3.acc {
		if v != 0 {
			t.Fatalf("grown acc[%d] = %d, want 0", i, v)
		}
	}
	a.put(ws3)
	a.put(nil) // no-op
	if a.Size() != 1 {
		t.Fatalf("size %d, want 1", a.Size())
	}
}

func TestWorkspaceBitsetReuse(t *testing.T) {
	ws := newWorkspace(4)
	b1 := ws.bitset(70)
	b1.Set(3)
	b1.Set(69)
	b2 := ws.bitset(70)
	if b2 != b1 {
		t.Fatal("bitset not reused")
	}
	if b2.Count() != 0 {
		t.Fatal("reused bitset not cleared")
	}
	b3 := ws.bitset(10)
	if b3.Len() != 10 {
		t.Fatalf("resized bitset len %d", b3.Len())
	}
}

// The peeling hot loop — repeated masked per-vertex counts into a
// caller-owned buffer with a warm arena — must allocate nothing, on a
// graph whose V1 seed takes the same-side sweep and on one whose V1
// seed takes the cross sweep. One thread runs no scheduling pass.
func TestTipRoundsArenaZeroAlloc(t *testing.T) {
	for i, g := range cheaperSidePair(t, gen.PowerLawBipartite(800, 200, 4000, 0.7, 0.7, 8)) {
		if cross := seedCross(vertexOrient(g, SideV1)); cross != (i == 1) {
			t.Fatalf("graph %d: cross sweep %v; want the pair to take the same-side sweep, then the cross sweep", i, cross)
		}
		n := g.NumV1()
		active := make([]bool, n)
		for u := range active {
			active[u] = u%5 != 0
		}
		s := make([]int64, n)
		arena := NewArena()
		// Warm the arena and the touched-list capacity.
		VertexButterfliesMaskedInto(s, g, SideV1, active, 1, arena)

		allocs := testing.AllocsPerRun(20, func() {
			VertexButterfliesMaskedInto(s, g, SideV1, active, 1, arena)
		})
		if allocs != 0 {
			t.Fatalf("graph %d: warm masked count allocated %.1f objects/op, want 0", i, allocs)
		}
	}
}

// Same claim for the per-edge support sweep used by wing peeling, on a
// graph whose cheaper sweep exposes V1 and on its transpose, whose
// cheaper sweep exposes V2 and scatters through arena scratch.
func TestWingRoundsArenaZeroAlloc(t *testing.T) {
	for _, g := range cheaperSidePair(t, gen.PowerLawBipartite(500, 400, 3000, 0.7, 0.7, 12)) {
		vals := make([]int64, g.NumEdges())
		arena := NewArena()
		EdgeSupportInto(vals, g, 1, arena)

		allocs := testing.AllocsPerRun(20, func() {
			EdgeSupportInto(vals, g, 1, arena)
		})
		// One CSR header per call is unavoidable (the result wrapper); the
		// point is that the O(V + E) scratch is gone.
		if allocs > 1 {
			t.Fatalf("warm support sweep allocated %.1f objects/op, want ≤ 1", allocs)
		}
	}
}

// Sequential counting through CountWith with a warm arena is also
// allocation-free — the repeated-count pattern of cmd/bfbench.
func TestCountWithArenaZeroAlloc(t *testing.T) {
	g := gen.PowerLawBipartite(600, 500, 3000, 0.7, 0.7, 15)
	arena := NewArena()
	opts := Options{Invariant: Inv2, hub: hubNever, Arena: arena}
	want := CountWith(g, opts)

	allocs := testing.AllocsPerRun(20, func() {
		if CountWith(g, opts) != want {
			t.Fatal("arena count mismatch")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm sequential count allocated %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkTipRoundsArena contrasts the arena-backed peel-round kernel
// with the allocating one; the arena path reports 0 allocs/op.
func BenchmarkTipRoundsArena(b *testing.B) {
	g := gen.PowerLawBipartite(2000, 1500, 10000, 0.7, 0.7, 4)
	n := g.NumV1()
	active := make([]bool, n)
	for i := range active {
		active[i] = i%7 != 0
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := vertexButterfliesMasked(g, SideV1, active)
			sinkBench = s[0]
		}
	})
	b.Run("arena", func(b *testing.B) {
		s := make([]int64, n)
		arena := NewArena()
		VertexButterfliesMaskedInto(s, g, SideV1, active, 1, arena)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			VertexButterfliesMaskedInto(s, g, SideV1, active, 1, arena)
			sinkBench = s[0]
		}
	})
}

// peelTips runs a tip decomposition of side with the delta kernel: the
// seed, then rounds that peel every alive vertex at or below the
// running level, all on `threads` workers and one arena.
func peelTips(g *graph.Bipartite, side Side, threads int, a *Arena) {
	exposed, _ := vertexOrient(g, side)
	n := exposed.R
	s := make([]int64, n)
	VertexButterfliesMaskedInto(s, g, side, nil, threads, a)
	alive := make([]bool, n)
	for u := range alive {
		alive[u] = true
	}
	dirty := make([]int32, n)
	var batch, touched []int64
	var level int64
	for left := n; left > 0; left -= len(batch) {
		low := int64(-1)
		for u, ok := range alive {
			if ok && (low < 0 || s[u] < low) {
				low = s[u]
			}
		}
		level = max(level, low)
		batch = batch[:0]
		for u, ok := range alive {
			if ok && s[u] <= level {
				alive[u] = false
				batch = append(batch, int64(u))
			}
		}
		touched = touched[:0]
		TipDeltaBatch(g, side, batch, alive, s, dirty, &touched, threads, a)
		for _, w := range touched {
			dirty[w] = 0
		}
	}
}

// peelWings is peelTips for edges, on the bloom index.
func peelWings(g *graph.Bipartite, threads int, a *Arena) {
	nnz := int(g.NumEdges())
	x := NewBloomIndex(g, threads, a)
	sup := make([]int64, nnz)
	x.SupportsInto(sup)
	alive := make([]bool, nnz)
	for e := range alive {
		alive[e] = true
	}
	dirty := make([]int32, nnz)
	var batch, touched []int64
	var level int64
	for left := nnz; left > 0; left -= len(batch) {
		low := int64(-1)
		for e, ok := range alive {
			if ok && (low < 0 || sup[e] < low) {
				low = sup[e]
			}
		}
		level = max(level, low)
		batch = batch[:0]
		for e, ok := range alive {
			if ok && sup[e] <= level {
				alive[e] = false
				batch = append(batch, int64(e))
			}
		}
		touched = touched[:0]
		x.PeelRound(batch, alive, sup, dirty, &touched)
		for _, f := range touched {
			dirty[f] = 0
		}
	}
}

// Every workspace goes back to the arena at rest after a parallel tip
// decomposition and a wing decomposition on an index built by three
// workers: its partial vector, which the seed and every tip delta round
// wrote through, is all-zero again, and its accumulator and touched
// shares are empty.
func TestArenaPartialsZeroAfterPeeling(t *testing.T) {
	g := gen.PowerLawBipartite(300, 200, 2000, 0.8, 0.7, 5)
	arena := NewArena()
	peelTips(g, SideV1, 3, arena)
	peelTips(g, SideV2, 3, arena)
	peelWings(g, 3, arena)
	var used int
	for _, ws := range arena.free {
		if len(ws.part) > 0 {
			used++
		}
		if slices.ContainsFunc(ws.part, func(c int64) bool { return c != 0 }) {
			t.Fatal("a pooled workspace holds a nonzero partial vector")
		}
		if slices.ContainsFunc(ws.acc, func(c int32) bool { return c != 0 }) || len(ws.touched) > 0 || len(ws.vout) > 0 {
			t.Fatal("a pooled workspace is not at rest")
		}
	}
	if used < 2 {
		t.Fatalf("%d pooled workspaces carry a partial vector; want the parallel paths to have run", used)
	}
}

// Size reports how many workspaces are currently checked in — useful in
// tests asserting that parallel runs return everything they borrow.
func (a *Arena) Size() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.free)
}
