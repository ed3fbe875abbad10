package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "throughput_ops", Unit: "1/s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name       string
		m          metricSpec
		base, head []float64
		wins       int
		want       string
	}{
		{"15% slower", lower, steady, scale(steady, 1.15), 0, "regression"},
		{"5% slower is within the bound", lower, steady, scale(steady, 1.05), 0, "unchanged"},
		{"spread wider than the bound", lower, noisy, scale(noisy, 0.97), 5, "unresolved"},
		{"wide spread but every head run better", lower, noisy, scale(noisy, 0.2), 10, "improved"},
		{"20% faster, 10 of 10 pairs", lower, steady, scale(steady, 0.8), 10, "improved"},
		{"20% faster but only 7 of 10 pairs", lower, steady, scale(steady, 0.8), 7, "unchanged"},
		{"throughput 15% lower", higher, steady, scale(steady, 0.85), 0, "regression"},
		{"throughput 20% higher", higher, steady, scale(steady, 1.2), 10, "improved"},
	} {
		if got := judge(c.m, c.base, c.head, c.wins, 10).result; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestPairWinsBySeed(t *testing.T) {
	m := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.1}
	r := func(seed int64, v float64) benchRun {
		return benchRun{seed: seed, metrics: map[string]float64{"p50_ms": v}}
	}
	base := []benchRun{r(1, 10), r(2, 10), r(3, 10), r(4, 10)}
	head := []benchRun{r(1, 9), r(2, 11), r(3, 10), r(5, 1)} // seed 5 has no partner
	if wins, pairs := pairWins(m, base, head); wins != 1 || pairs != 3 {
		t.Errorf("wins/pairs = %d/%d, want 1/3 (a tie counts for neither side)", wins, pairs)
	}
}

// runCompare end to end: two sets written as result files, one with a
// regressed workload.
func TestCompareFlagsRegression(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	sp.Workloads = append(sp.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "serve-read"})
	write := func(dir string, seed int64, v float64) {
		rf := runFile{Schema: schema, Seed: seed, Workloads: []workloadResult{{
			Workload: "serve-read", Correct: true,
			Metrics: map[string]metricValue{"p50_ms": {Value: v, Unit: "ms"}},
		}}}
		b, _ := json.Marshal(rf)
		if err := os.WriteFile(filepath.Join(dir, "r"+string(rune('a'+seed))+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	base, head := t.TempDir(), t.TempDir()
	for seed := int64(1); seed <= 5; seed++ {
		write(base, seed, 10+0.1*float64(seed))
		write(head, seed, 13+0.1*float64(seed))
	}
	var out, errb bytes.Buffer
	if code := runCompare(sp, base, head, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1 for a regression; stderr %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "regression") || !strings.Contains(out.String(), "pairs won by head: 0 of 5") {
		t.Errorf("report lacks the regression or the pair count:\n%s", out.String())
	}
	out.Reset()
	if code := runCompare(sp, base, base, &out, &errb); code != 0 {
		t.Errorf("a set compared with itself: exit %d\n%s", code, out.String())
	}
}
