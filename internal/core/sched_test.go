package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"butterfly/internal/gen"
)

// workPerExposedReference recomputes the restricted work with the
// search-based per-vertex definition the scheduler's one-pass version
// must match.
func workPerExposedReference(g interface{ NumV1() int }, inv Invariant, exposedR int, segW func(k, yi int) int64, deg func(k int) int) []int64 {
	work := make([]int64, exposedR)
	for k := range work {
		for yi := 0; yi < deg(k); yi++ {
			work[k] += segW(k, yi)
		}
	}
	return work
}

func TestQuickWorkPerExposedMatchesSearchReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 14)
		for _, inv := range Invariants() {
			_, above := inv.geometry()
			exposed, secondary := orient(g, inv)
			got := workPerExposed(exposed, secondary, above)
			want := workPerExposedReference(g, inv, exposed.R,
				restrictedSegWork(exposed, secondary, above), exposed.RowDeg)
			for k := range want {
				if got[k] != want[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Every schedule must cover each traversal index exactly once: spilled
// hubs through the union of their segments, everything else through
// chunks. Work must be conserved exactly.
func checkScheduleCovers(t *testing.T, s *schedule, work []int64, desc bool, deg func(k int) int) {
	t.Helper()
	n := len(work)
	covered := make([]int, n) // count of chunk/whole-hub coverings
	segCover := make(map[int][]bool)
	var total int64
	for _, u := range s.units {
		total += u.work
		switch u.kind {
		case unitChunk:
			for idx := u.lo; idx < u.hi; idx++ {
				k := idx
				if desc {
					k = n - 1 - idx
				}
				covered[k]++
			}
		case unitYSeg:
			c, ok := segCover[u.hub]
			if !ok {
				c = make([]bool, deg(u.hub))
				segCover[u.hub] = c
			}
			for yi := u.lo; yi < u.hi; yi++ {
				if c[yi] {
					t.Fatalf("hub %d neighbor %d covered twice", u.hub, yi)
				}
				c[yi] = true
			}
		case unitZSeg:
			t.Fatalf("unexpected zSeg with nil bitsSplit")
		}
	}
	for hub, c := range segCover {
		covered[hub]++
		for yi, ok := range c {
			if !ok {
				t.Fatalf("hub %d neighbor %d uncovered", hub, yi)
			}
		}
		if s.spills == nil {
			t.Fatalf("segments without spill records")
		}
		_ = hub
	}
	for k, c := range covered {
		if c != 1 {
			t.Fatalf("vertex %d covered %d times", k, c)
		}
	}
	var want int64
	for _, w := range work {
		want += w
	}
	if total != want {
		t.Fatalf("schedule carries %d work, want %d", total, want)
	}
	if total != s.total {
		t.Fatalf("schedule.total %d, units sum %d", s.total, total)
	}
}

func TestQuickScheduleCoversAndConserves(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 16)
		for _, inv := range []Invariant{Inv1, Inv2, Inv3, Inv4, Inv6, Inv7} {
			desc, above := inv.geometry()
			exposed, secondary := orient(g, inv)
			work := workPerExposed(exposed, secondary, above)
			for _, threads := range []int{1, 2, 4, 8} {
				// minWork=1 forces aggressive spilling even on tiny
				// graphs, exercising the hub-splitting machinery.
				s := buildSchedule(work, desc, threads, schedTuning{minWork: 1},
					restrictedSegWork(exposed, secondary, above),
					exposed.RowDeg, nil, nil)
				checkScheduleCovers(t, s, work, desc, exposed.RowDeg)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleSplitsHubs(t *testing.T) {
	// K(40,3) under Inv2 exposes three V2 vertices of degree 40; the
	// first carries 2/3 of the restricted work, far above the budget
	// once minWork is shrunk, so the scheduler must split it.
	g := gen.CompleteBipartite(40, 3)
	exposed, secondary := orient(g, Inv2) // exposes V2
	_, above := Inv2.geometry()
	work := workPerExposed(exposed, secondary, above)
	s := buildSchedule(work, false, 4, schedTuning{minWork: 1, spillDiv: 4},
		restrictedSegWork(exposed, secondary, above), exposed.RowDeg, nil, nil)
	if len(s.spills) == 0 {
		t.Fatal("no hub was split")
	}
	for _, sp := range s.spills {
		if sp.segs < 2 {
			t.Fatalf("hub %d split into %d segments", sp.k, sp.segs)
		}
	}
	checkScheduleCovers(t, s, work, false, exposed.RowDeg)
}

func TestScheduleZSegSplit(t *testing.T) {
	g := gen.CompleteBipartite(30, 30)
	exposed, secondary := orient(g, Inv2)
	_, above := Inv2.geometry()
	work := workPerExposed(exposed, secondary, above)
	all := func(k int) (int, int, bool) {
		if above {
			return k + 1, exposed.R, k+1 < exposed.R
		}
		return 0, k, k > 0
	}
	s := buildSchedule(work, false, 4, schedTuning{minWork: 1, spillDiv: 4},
		restrictedSegWork(exposed, secondary, above), exposed.RowDeg, all, exposed.Ptr)
	var zsegs int
	var total int64
	for _, u := range s.units {
		total += u.work
		if u.kind == unitZSeg {
			zsegs++
			if u.hi <= u.lo {
				t.Fatalf("empty zSeg [%d,%d)", u.lo, u.hi)
			}
		}
	}
	if zsegs == 0 {
		t.Fatal("no candidate-range segments emitted")
	}
	var want int64
	for _, w := range work {
		want += w
	}
	if total != want {
		t.Fatalf("zSeg schedule carries %d work, want %d", total, want)
	}
	if len(s.spills) != 0 {
		t.Fatalf("zSeg splits must not require reductions, got %d spills", len(s.spills))
	}
}

func TestSimulateLeastLoaded(t *testing.T) {
	s := &schedule{units: []schedUnit{
		{kind: unitChunk, work: 10},
		{kind: unitChunk, work: 10},
		{kind: unitChunk, work: 1},
		{kind: unitChunk, work: 1},
	}}
	loads := s.simulate(2)
	if loads[0] != 11 || loads[1] != 11 {
		t.Fatalf("loads = %v, want [11 11]", loads)
	}
	// Deterministic: same input, same output.
	loads2 := s.simulate(2)
	for i := range loads {
		if loads[i] != loads2[i] {
			t.Fatal("simulate is not deterministic")
		}
	}
}

// oldFixedChunkBalance reproduces the retired scheduler's model — fixed
// chunks of 64 exposed vertices to the least-loaded worker — so the
// regression test below can assert the improvement without wall clocks.
func oldFixedChunkBalance(work []int64, desc bool, threads int) []int64 {
	const oldChunk = 64
	loads := make([]int64, threads)
	n := len(work)
	for start := 0; start < n; start += oldChunk {
		end := start + oldChunk
		if end > n {
			end = n
		}
		var chunk int64
		for idx := start; idx < end; idx++ {
			k := idx
			if desc {
				k = n - 1 - idx
			}
			chunk += work[k]
		}
		min := 0
		for t := 1; t < threads; t++ {
			if loads[t] < loads[min] {
				min = t
			}
		}
		loads[min] += chunk
	}
	return loads
}

// The hub-packed record-labels stand-in is the documented failure mode
// of the fixed-chunk scheduler: its weight-sorted labeling packs every
// hub into the first chunks, and docs/PERFORMANCE.md measured max/mean
// 1.68 on six workers. The work-weighted schedule must be within 25% of
// perfect on the same input. Fully deterministic — no wall-clock
// dependence, so it holds on single-CPU CI.
func TestWorkBalanceRecordLabelsHubPacked(t *testing.T) {
	g, err := gen.PaperDataset("record-labels")
	if err != nil {
		t.Fatal(err)
	}
	inv := AutoInvariant(g)
	const threads = 6

	desc, above := inv.geometry()
	exposed, secondary := orient(g, inv)
	work := workPerExposed(exposed, secondary, above)

	fOld := ImbalanceFactor(oldFixedChunkBalance(work, desc, threads))
	if fOld < 1.5 {
		t.Fatalf("fixed-chunk baseline imbalance %.3f — the stand-in no longer reproduces the failure mode", fOld)
	}

	fNew := ImbalanceFactor(WorkBalance(g, inv, threads))
	if fNew > 1.25 {
		t.Fatalf("work-weighted imbalance %.3f > 1.25 (fixed-chunk baseline %.3f)", fNew, fOld)
	}
	if fNew >= fOld {
		t.Fatalf("work-weighted schedule (%.3f) did not improve on fixed chunks (%.3f)", fNew, fOld)
	}
	t.Logf("record-labels imbalance: fixed-chunk %.3f → work-weighted %.3f", fOld, fNew)
}
