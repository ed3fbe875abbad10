package peel

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"butterfly/internal/core"
	"butterfly/internal/gen"
	"butterfly/internal/graph"
)

// The incremental delta engine must produce the same tip numbers as the
// sequential recount engine (confluence) on random graphs, on both
// sides, sequential and parallel. This is the tentpole differential
// test; it also runs under -race in CI, which exercises the
// partial-vector merges of the parallel delta kernels.
func TestQuickTipDeltaMatchesSequentialAndRecount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 9)
		for _, side := range []core.Side{core.SideV1, core.SideV2} {
			want := tipNumbers(g, side)
			for _, threads := range []int{1, 3} {
				got, _ := deltaLevels(tips(g, side, threads), nil)
				for i := range want {
					if got[i] != want[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestTipDeltaMediumGraph(t *testing.T) {
	g := gen.PowerLawBipartite(300, 250, 2000, 0.7, 0.7, 3)
	want := tipNumbers(g, core.SideV1)
	got, rounds := deltaLevels(tips(g, core.SideV1, 4), nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vertex %d: delta %d, recount %d", i, got[i], want[i])
		}
	}
	if rounds < 1 {
		t.Fatalf("expected at least one peeled batch, got %d", rounds)
	}
}

func TestTipDeltaEmptyAndButterflyFree(t *testing.T) {
	for _, tip := range mustTip(deltaLevels(tips(gen.Star(5), core.SideV2, 2), nil)) {
		if tip != 0 {
			t.Fatal("star leaves should have tip 0")
		}
	}
	empty, rounds := deltaLevels(tips(gen.CompleteBipartite(0, 0), core.SideV1, 2), nil)
	if len(empty) != 0 || rounds != 0 {
		t.Fatal("empty graph should give empty tips in zero rounds")
	}
}

func mustTip(tip []int64, _ int) []int64 { return tip }

func TestQuickWingDeltaMatchesSequentialAndRecount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 8)
		want := wingNumbers(g)
		for _, threads := range []int{1, 3} {
			got, _ := deltaLevels(wings(g, threads), nil)
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWingDeltaMediumGraph(t *testing.T) {
	g := gen.PowerLawBipartite(120, 100, 900, 0.7, 0.7, 13)
	want := wingNumbers(g)
	got, rounds := deltaLevels(wings(g, 4), nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: delta %d, recount %d", i, got[i], want[i])
		}
	}
	if rounds < 1 {
		t.Fatalf("expected at least one peeled batch, got %d", rounds)
	}
}

// checkWingRound checks the wing engine's state after a round: no
// surviving support is negative, and the surviving supports add up to
// four times the butterflies left in the index, Σ_B C(k_B, 2) — each
// butterfly has four edges. Closed-form decrements are exact, so any
// over- or under-decrement breaks the sum.
func checkWingRound(x *core.BloomIndex, alive []bool, sup []int64) error {
	var sum int64
	for e, ok := range alive {
		if !ok {
			continue
		}
		if sup[e] < 0 {
			return fmt.Errorf("surviving edge %d has support %d", e, sup[e])
		}
		sum += sup[e]
	}
	if want := 4 * x.Butterflies(); sum != want {
		return fmt.Errorf("surviving supports add up to %d, want 4·Σ C(k, 2) = %d", sum, want)
	}
	return nil
}

// wingPeel is the delta wing decomposition with a hook that, when
// non-nil, sees the index, liveness and supports after every round. Its
// seed builds the index exactly as the wing kind's does, and keeps it
// in the hook's reach.
func wingPeel(g *graph.Bipartite, threads int, stage stageFunc, after func(x *core.BloomIndex, alive []bool, sup []int64)) ([]int64, int) {
	k := wings(g, threads)
	k.seed = func(sup []int64) decFunc {
		x := core.NewBloomIndex(g, threads, nil)
		x.SupportsInto(sup)
		return func(batch []int64, alive []bool, sup []int64, dirty []int32, touched *[]int64) {
			x.PeelRound(batch, alive, sup, dirty, touched)
			if after != nil {
				after(x, alive, sup)
			}
		}
	}
	return deltaLevels(k, stage)
}

// wingRoundsChecked runs the wing engine with checkWingRound after
// every round and returns the first violation with its round.
func wingRoundsChecked(g *graph.Bipartite, threads int) error {
	var err error
	rounds := 0
	wingPeel(g, threads, nil, func(x *core.BloomIndex, alive []bool, sup []int64) {
		rounds++
		if err == nil {
			if e := checkWingRound(x, alive, sup); e != nil {
				err = fmt.Errorf("round %d: %w", rounds, e)
			}
		}
	})
	return err
}

// The round invariant holds after every round of the wing engine on
// random graphs, at one and three threads.
func TestQuickWingRoundInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 10)
		for _, threads := range []int{1, 3} {
			if err := wingRoundsChecked(g, threads); err != nil {
				t.Logf("seed %d threads %d: %v", seed, threads, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The same invariant on the five paper stand-ins at scale 10.
func TestWingRoundInvariantOnStandIns(t *testing.T) {
	for _, name := range gen.PaperDatasetNames() {
		g, err := gen.ScaledPaperDataset(name, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := wingRoundsChecked(g, 2); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// An injected extra decrement of one surviving support must fail the
// round check, whether it leaves the support positive (the sum breaks)
// or drives it negative.
func TestWingRoundCheckCatchesExtraDecrement(t *testing.T) {
	g := gen.PowerLawBipartite(120, 100, 900, 0.7, 0.7, 13)
	for _, from := range []string{"positive", "zero"} {
		var caught, injected bool
		wingPeel(g, 1, nil, func(x *core.BloomIndex, alive []bool, sup []int64) {
			if injected {
				return
			}
			if err := checkWingRound(x, alive, sup); err != nil {
				t.Fatalf("clean round failed the check: %v", err)
			}
			for e, ok := range alive {
				if ok && (sup[e] == 0) == (from == "zero") {
					sup[e]--
					injected = true
					caught = checkWingRound(x, alive, sup) != nil
					sup[e]++
					return
				}
			}
		})
		if !injected || !caught {
			t.Fatalf("decrement from %s support: injected %v, caught %v", from, injected, caught)
		}
	}
}

func TestQuickKTipDeltaMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 9)
		for k := int64(0); k <= 3; k++ {
			for _, side := range []core.Side{core.SideV1, core.SideV2} {
				sub, _ := deltaBelow(tips(g, side, 3), k, nil)
				if !sub.Equal(kTip(g, k, side)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKWingDeltaMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 8)
		for k := int64(0); k <= 3; k++ {
			sub, _ := deltaBelow(wings(g, 3), k, nil)
			if !sub.Equal(kWing(g, k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The engine dispatch layer must agree with the sequential recount
// engine on both engines and report positive round counts.
func TestEngineDispatchAgrees(t *testing.T) {
	g := gen.PowerLawBipartite(150, 120, 1100, 0.7, 0.7, 29)
	for _, side := range []core.Side{core.SideV1, core.SideV2} {
		want := tipNumbers(g, side)
		for _, eng := range []Engine{EngineDelta, EngineRecount} {
			tip, st := TipNumbersWith(g, side, Options{Engine: eng, Threads: 2})
			for i := range want {
				if tip[i] != want[i] {
					t.Fatalf("engine %v side %v vertex %d: got %d want %d", eng, side, i, tip[i], want[i])
				}
			}
			if st.Rounds < 1 {
				t.Fatalf("engine %v: expected positive rounds", eng)
			}
		}
	}
	wantWing := wingNumbers(g)
	for _, eng := range []Engine{EngineDelta, EngineRecount} {
		wing, st := WingNumbersWith(g, Options{Engine: eng, Threads: 2})
		for i := range wantWing {
			if wing[i] != wantWing[i] {
				t.Fatalf("engine %v edge %d: got %d want %d", eng, i, wing[i], wantWing[i])
			}
		}
		if st.Rounds < 1 {
			t.Fatalf("engine %v: expected positive rounds", eng)
		}
	}
	for _, k := range []int64{0, 1, 2, 5} {
		wantTip := kTip(g, k, core.SideV1)
		wantKW := kWing(g, k)
		for _, eng := range []Engine{EngineDelta, EngineRecount} {
			sub, _ := KTipWith(g, k, core.SideV1, Options{Engine: eng, Threads: 2})
			if !sub.Equal(wantTip) {
				t.Fatalf("engine %v k=%d: k-tip mismatch", eng, k)
			}
			sub, _ = KWingWith(g, k, Options{Engine: eng, Threads: 2})
			if !sub.Equal(wantKW) {
				t.Fatalf("engine %v k=%d: k-wing mismatch", eng, k)
			}
		}
	}
}

// A caller-set thread count must not size peel memory: every worker
// holds a side-wide accumulator, so KTipWith and KWingWith at 4096
// threads allocate no more than twice what they allocate at GOMAXPROCS.
func TestThreadsClampBoundsPeelMemory(t *testing.T) {
	g := gen.PowerLawBipartite(3000, 2500, 15000, 0.7, 0.7, 5)
	allocated := func(run func(Options), threads int) uint64 {
		run(Options{Threads: threads})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(Options{Threads: threads})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for name, run := range map[string]func(Options){
		"KTipWith":  func(o Options) { KTipWith(g, 5, core.SideV1, o) },
		"KWingWith": func(o Options) { KWingWith(g, 5, o) },
	} {
		base := allocated(run, runtime.GOMAXPROCS(0))
		wide := allocated(run, 4096)
		if wide > 2*base {
			t.Errorf("%s: %d B at 4096 threads, %d B at GOMAXPROCS", name, wide, base)
		}
	}
}

// On K(20,20), and on K(20,20) with ten more V1 vertices joined to its
// first ten V2 vertices (which peel first, in batches that destroy
// butterflies of the same survivors), every worker's partial vector
// hits the same ids. Both engines at threads 3 must equal the
// one-thread recount engine there, for tips of either side and wings.
// CI runs this under -race.
func TestEnginesMergeOnCompleteBipartite(t *testing.T) {
	b := graph.NewBuilder(30, 20)
	for u := 0; u < 30; u++ {
		for v := 0; v < 20; v++ {
			if u < 20 || v < 10 {
				b.AddEdge(u, v)
			}
		}
	}
	for _, g := range []*graph.Bipartite{gen.CompleteBipartite(20, 20), b.Build()} {
		for _, side := range []core.Side{core.SideV1, core.SideV2} {
			want := tipNumbers(g, side)
			delta, _ := deltaLevels(tips(g, side, 3), nil)
			recount, _ := recountLevels(tips(g, side, 3), nil)
			if !slices.Equal(delta, want) || !slices.Equal(recount, want) {
				t.Fatalf("%d×%d %v tips: delta %v, recount %v, want %v", g.NumV1(), g.NumV2(), side, delta, recount, want)
			}
		}
		want := wingNumbers(g)
		delta, _ := deltaLevels(wings(g, 3), nil)
		recount, _ := recountLevels(wings(g, 3), nil)
		if !slices.Equal(delta, want) || !slices.Equal(recount, want) {
			t.Fatalf("%d×%d wings: delta and recount at threads 3 differ from the one-thread recount", g.NumV1(), g.NumV2())
		}
	}
}

func TestEngineString(t *testing.T) {
	if EngineDelta.String() != "delta" || EngineRecount.String() != "recount" {
		t.Fatalf("engine names: %q %q", EngineDelta, EngineRecount)
	}
}

// The delta engines' loops reuse one arena and their scratch slices;
// a full decomposition's allocations amortize to the initial vectors
// and the bucket queue's growth to its high-water mark. Per-round
// scratch allocation (workspace + partner lists + batch each of the
// ~100 rounds of this graph) would run to thousands of allocations;
// the kernel-level zero-alloc guarantee is asserted exactly in
// internal/core's TestTipDeltaSteadyStateZeroAlloc.
func TestTipDeltaFewAllocsWarm(t *testing.T) {
	g := gen.PowerLawBipartite(200, 160, 1400, 0.7, 0.7, 7)
	// Prime any global state.
	deltaLevels(tips(g, core.SideV1, 1), nil)
	allocs := testing.AllocsPerRun(3, func() {
		deltaLevels(tips(g, core.SideV1, 1), nil)
	})
	if allocs > 512 {
		t.Fatalf("deltaLevels of tips allocates %v times per run", allocs)
	}
}

// TestWingDeltaRelayoutAgreement pins the relayout-awareness of the
// delta kernels' hub-path cost model (core/delta.go): on the
// degree-ordered twin that the counting core serves scalar counts from,
// hubs occupy the *low* vertex ids — the opposite of where a natural-
// order heuristic would look for them. The decision must read only
// degrees, so delta peeling has to agree with the recount engine on the
// relayouted graph exactly as it does on the original.
func TestWingDeltaRelayoutAgreement(t *testing.T) {
	orig := gen.PowerLawBipartite(120, 100, 900, 0.7, 0.7, 13)
	g, _, _ := orig.DegreeOrdered()
	want := mustTip(recountLevels(wings(g, 2), nil))
	for _, threads := range []int{1, 4} {
		got, _ := deltaLevels(wings(g, threads), nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("threads=%d edge %d: delta %d, recount %d", threads, i, got[i], want[i])
			}
		}
	}
	// The wing numbers must also be a relabeling of the original's: the
	// multiset of edge wing numbers is invariant under vertex renumbering.
	a, b := wingNumbers(orig), want
	var sa, sb int64
	for _, x := range a {
		sa += x
	}
	for _, x := range b {
		sb += x
	}
	if len(a) != len(b) || sa != sb {
		t.Fatalf("wing decomposition changed under relayout: %d edges sum %d vs %d edges sum %d", len(a), sa, len(b), sb)
	}
}

// TestTipDeltaRelayoutAgreement is the tip-side companion: delta
// peeling on the degree-ordered twin agrees with the recount engine for
// both sides and thread counts.
func TestTipDeltaRelayoutAgreement(t *testing.T) {
	orig := gen.PowerLawBipartite(300, 250, 2000, 0.7, 0.7, 3)
	g, _, _ := orig.DegreeOrdered()
	for _, side := range []core.Side{core.SideV1, core.SideV2} {
		want := mustTip(recountLevels(tips(g, side, 2), nil))
		for _, threads := range []int{1, 4} {
			got, _ := deltaLevels(tips(g, side, threads), nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("side=%v threads=%d vertex %d: delta %d, recount %d", side, threads, i, got[i], want[i])
				}
			}
		}
	}
}
