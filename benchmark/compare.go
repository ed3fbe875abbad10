package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A result set is one result file or a directory of them. compare pools
// the untraced runs of each set per workload and judges every pair of
// workload and end-to-end metric against the bound BENCHMARK.json fixes
// for it.

// benchRun is one workload's end-to-end metrics from one invocation.
type benchRun struct {
	seed    int64
	metrics map[string]float64
}

// loadSet reads every untraced result under path, keyed by workload.
func loadSet(path string) (map[string][]benchRun, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		files, _ = filepath.Glob(filepath.Join(path, "*.json"))
	}
	out := map[string][]benchRun{}
	for _, f := range files {
		if strings.HasSuffix(f, ".spans.json") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(b, &rf); err != nil || rf.Schema != schema {
			return nil, fmt.Errorf("%s is not a %s result file", f, schema)
		}
		if rf.Trace || rf.Smoke {
			continue
		}
		for _, wr := range rf.Workloads {
			if !wr.Correct {
				continue
			}
			m := map[string]float64{}
			for k, v := range wr.Metrics {
				m[k] = v.Value
			}
			out[wr.Workload] = append(out[wr.Workload], benchRun{seed: rf.Seed, metrics: m})
		}
	}
	return out, nil
}

// verdict is the judgement on one pair of workload and metric.
type verdict struct {
	workload, metric string
	base, head       [3]float64 // q1, median, q3
	change           float64    // head vs base median, positive = worse
	wins, pairs      int        // pairs the change won
	result           string     // regression, unresolved, improved, unchanged
}

// judge applies the rules: a change worse than the bound is a
// regression; a spread wider than the bound leaves the metric
// unresolved unless every head run beats every base run; a gain counts
// when the change wins nine tenths of the pairs and the medians differ
// by more than the base's own quartile distance.
func judge(m metricSpec, base, head []float64, wins, pairs int) verdict {
	v := verdict{metric: m.Name, wins: wins, pairs: pairs}
	v.base[0], v.base[1], v.base[2] = quartiles(base)
	v.head[0], v.head[1], v.head[2] = quartiles(head)
	better := func(a, b float64) bool { // a better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	v.change = (v.head[1] - v.base[1]) / v.base[1]
	if m.Better == "higher" {
		v.change = -v.change
	}
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / q[1] }
	allBetter := len(head) > 0 && len(base) > 0
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	switch {
	case spread(v.base) > m.Bound || spread(v.head) > m.Bound:
		v.result = "unresolved"
		if allBetter {
			v.result = "improved"
		}
	case v.change > m.Bound:
		v.result = "regression"
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) &&
		better(v.head[1], v.base[1]) && math.Abs(v.head[1]-v.base[1]) > v.base[2]-v.base[0]:
		v.result = "improved"
	default:
		v.result = "unchanged"
	}
	return v
}

// pairWins pairs the runs of the two sets by seed (by order for seeds
// present more than once) and counts the pairs in which head was
// better; ties count for neither side.
func pairWins(m metricSpec, base, head []benchRun) (wins, pairs int) {
	bySeed := func(rs []benchRun) map[int64][]float64 {
		out := map[int64][]float64{}
		for _, r := range rs {
			if v, ok := r.metrics[m.Name]; ok {
				out[r.seed] = append(out[r.seed], v)
			}
		}
		return out
	}
	bs, hs := bySeed(base), bySeed(head)
	for seed, bv := range bs {
		hv := hs[seed]
		for i := 0; i < len(bv) && i < len(hv); i++ {
			pairs++
			if (m.Better == "higher" && hv[i] > bv[i]) || (m.Better != "higher" && hv[i] < bv[i]) {
				wins++
			}
		}
	}
	return wins, pairs
}

func values(rs []benchRun, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// runCompare prints one row per pair of workload and end-to-end metric
// and exits 1 when any is a regression or unresolved.
func runCompare(sp *spec, basePath, headPath string, stdout, stderr io.Writer) int {
	base, err := loadSet(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	head, err := loadSet(headPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var vs []verdict
	for _, w := range sp.workloadNames() {
		if len(base[w]) == 0 || len(head[w]) == 0 {
			continue
		}
		for _, m := range sp.EndToEnd {
			b, h := values(base[w], m.Name), values(head[w], m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			wins, pairs := pairWins(m, base[w], head[w])
			v := judge(m, b, h, wins, pairs)
			v.workload = w
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		fmt.Fprintln(stderr, "benchmark: the two sets share no workload with correct untraced runs")
		return 1
	}
	return printVerdicts(stdout, sp, vs, base, head)
}

func printVerdicts(w io.Writer, sp *spec, vs []verdict, base, head map[string][]benchRun) int {
	fmt.Fprintf(w, "%-20s %-15s %28s %28s %8s %6s %7s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "Δmedian", "bound", "won", "verdict")
	counts := map[string]int{}
	var wins, pairs int
	for _, v := range vs {
		bound := 0.0
		for _, m := range sp.EndToEnd {
			if m.Name == v.metric {
				bound = m.Bound
			}
		}
		fmt.Fprintf(w, "%-20s %-15s %28s %28s %+7.1f%% %5.0f%% %3d/%-3d  %s\n", v.workload, v.metric,
			fmtQ(v.base), fmtQ(v.head), 100*(v.head[1]-v.base[1])/v.base[1], 100*bound, v.wins, v.pairs, v.result)
		counts[v.result]++
		wins += v.wins
		pairs += v.pairs
	}
	ws := make([]string, 0, len(base))
	for k := range base {
		ws = append(ws, fmt.Sprintf("%s %d/%d runs", k, len(base[k]), len(head[k])))
	}
	sort.Strings(ws)
	share := 0.0
	if pairs > 0 {
		share = float64(wins) / float64(pairs)
	}
	fmt.Fprintf(w, "\nruns (base/head): %s\n", strings.Join(ws, ", "))
	fmt.Fprintf(w, "pairs won by head: %d of %d (%.0f%%); regression %d, unresolved %d, improved %d, unchanged %d\n",
		wins, pairs, 100*share, counts["regression"], counts["unresolved"], counts["improved"], counts["unchanged"])
	if counts["regression"]+counts["unresolved"] > 0 {
		return 1
	}
	return 0
}

func fmtQ(q [3]float64) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2]) }
