package baseline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"butterfly/internal/dense"
	"butterfly/internal/gen"
)

func TestQuickSortAggregateMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 12)
		want := dense.SpecCount(d)
		return CountSortAggregate(g, 1) == want && CountSortAggregate(g, 4) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortAggregateClosedForms(t *testing.T) {
	for _, threads := range []int{1, 2, 8} {
		if got := CountSortAggregate(gen.CompleteBipartite(4, 4), threads); got != 36 {
			t.Errorf("K(4,4) threads=%d: %d, want 36", threads, got)
		}
		if got := CountSortAggregate(gen.Star(5), threads); got != 0 {
			t.Errorf("star threads=%d: %d, want 0", threads, got)
		}
	}
	empty := gen.CompleteBipartite(0, 0)
	if CountSortAggregate(empty, 4) != 0 {
		t.Error("empty graph not 0")
	}
}

func TestSumRuns(t *testing.T) {
	cases := []struct {
		in   []int64
		want int64
	}{
		{[]int64{1}, 0},
		{[]int64{1, 1}, 1},
		{[]int64{1, 1, 1}, 3},
		{[]int64{1, 2, 2, 3, 3, 3}, 1 + 3},
		{[]int64{5, 6, 7}, 0},
	}
	for _, c := range cases {
		if got := sumRuns(c.in); got != c.want {
			t.Errorf("sumRuns(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}
