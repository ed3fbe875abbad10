package peel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"butterfly/internal/core"
	"butterfly/internal/gen"
)

// Round-synchronous peeling on several workers must produce the same
// tip numbers as on one.
func TestQuickTipRoundsMatchSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 9)
		for _, side := range []core.Side{core.SideV1, core.SideV2} {
			want := tipNumbers(g, side)
			for _, threads := range []int{2, 3} {
				got := mustTip(recountLevels(tips(g, side, threads), nil))
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

func TestTipRoundsMediumGraph(t *testing.T) {
	g := gen.PowerLawBipartite(300, 250, 2000, 0.7, 0.7, 3)
	want := tipNumbers(g, core.SideV1)
	got := mustTip(recountLevels(tips(g, core.SideV1, 4), nil))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vertex %d: 4 workers %d, sequential %d", i, got[i], want[i])
		}
	}
}

func TestTipRoundsEmptyAndButterflyFree(t *testing.T) {
	for _, tip := range mustTip(recountLevels(tips(gen.Star(5), core.SideV2, 2), nil)) {
		if tip != 0 {
			t.Fatal("star leaves should have tip 0")
		}
	}
	empty := mustTip(recountLevels(tips(gen.CompleteBipartite(0, 0), core.SideV1, 2), nil))
	if len(empty) != 0 {
		t.Fatal("empty graph should give empty tips")
	}
}

func TestQuickKTipParallelMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 9)
		for k := int64(0); k <= 3; k++ {
			for _, side := range []core.Side{core.SideV1, core.SideV2} {
				if sub, _ := recountBelow(tips(g, side, 4), k, nil); !sub.Equal(kTip(g, k, side)) {
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

func TestQuickMaskedParallelMatchesMasked(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 12)
		active := make([]bool, g.NumV1())
		for i := range active {
			active[i] = rng.Intn(4) > 0
		}
		want := make([]int64, g.NumV1())
		got := make([]int64, g.NumV1())
		core.VertexButterfliesMaskedInto(want, g, core.SideV1, active, 1, nil)
		core.VertexButterfliesMaskedInto(got, g, core.SideV1, active, 3, nil)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWingRoundsMatchSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 8)
		want := wingNumbers(g)
		for _, threads := range []int{2, 3} {
			got := mustTip(recountLevels(wings(g, threads), nil))
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

func TestWingRoundsMediumGraph(t *testing.T) {
	g := gen.PowerLawBipartite(120, 100, 900, 0.7, 0.7, 13)
	want := wingNumbers(g)
	got := mustTip(recountLevels(wings(g, 4), nil))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: 4 workers %d, sequential %d", i, got[i], want[i])
		}
	}
}

func TestQuickKWingParallelMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 8)
		for k := int64(0); k <= 3; k++ {
			if sub, _ := recountBelow(wings(g, 3), k, nil); !sub.Equal(kWing(g, k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWingRoundsEmpty(t *testing.T) {
	if got := mustTip(recountLevels(wings(gen.CompleteBipartite(0, 0), 2), nil)); len(got) != 0 {
		t.Fatal("empty graph should give empty wing numbers")
	}
	for _, wn := range mustTip(recountLevels(wings(gen.Star(4), 2), nil)) {
		if wn != 0 {
			t.Fatal("butterfly-free edges must have wing 0")
		}
	}
}
