// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section V): Fig 9 (dataset
// statistics), Fig 10 (sequential runtimes of invariants 1–8), Fig 11
// (6-thread parallel runtimes), plus the ablation sweeps behind the
// section's three qualitative claims (partition-side selection, edge
// sparsity, look-ahead) and this implementation's own ablations
// (blocked variants, degree ordering, baseline comparison).
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/gen"
	"butterfly/internal/graph"
	"butterfly/internal/konect"
)

// LoadDataset returns the named paper dataset. If dataDir contains a
// real KONECT download at <dataDir>/<name>/out.<name> (or a flat
// <dataDir>/<name>), it is used; otherwise the seeded synthetic
// stand-in is generated (scaled down by `scale` ≥ 1).
func LoadDataset(name, dataDir string, scale int) (*graph.Bipartite, error) {
	if dataDir != "" {
		for _, p := range []string{
			filepath.Join(dataDir, name, "out."+name),
			filepath.Join(dataDir, name),
		} {
			if st, err := os.Stat(p); err == nil && !st.IsDir() {
				return konect.ReadFile(p)
			}
		}
	}
	if scale <= 1 {
		return gen.PaperDataset(name)
	}
	return gen.ScaledPaperDataset(name, scale)
}

// TimeIt runs fn once and returns its duration and result.
func TimeIt(fn func() int64) (time.Duration, int64) {
	start := time.Now()
	v := fn()
	return time.Since(start), v
}

// InvariantTiming is one cell of Fig 10/11.
type InvariantTiming struct {
	Invariant core.Invariant
	Seconds   float64
	Count     int64
}

// TimeInvariantsBest measures all eight invariants on g with the given
// thread count (1 = sequential, matching Fig 10; 6 matches Fig 11),
// reporting the minimum over `repeat` runs per cell — the usual
// defense against scheduler noise in small-cell grids. All counts are
// verified equal; a mismatch panics, because a harness that times
// wrong answers is worse than no harness.
func TimeInvariantsBest(g *graph.Bipartite, threads, repeat int) []InvariantTiming {
	if repeat < 1 {
		repeat = 1
	}
	out := make([]InvariantTiming, 0, core.NumInvariants)
	var want int64
	for i, inv := range core.Invariants() {
		best := -1.0
		var c int64
		for r := 0; r < repeat; r++ {
			d, got := TimeIt(func() int64 {
				return core.CountWith(g, core.Options{Invariant: inv, Threads: threads})
			})
			c = got
			if best < 0 || d.Seconds() < best {
				best = d.Seconds()
			}
		}
		if i == 0 {
			want = c
		} else if c != want {
			panic(fmt.Sprintf("bench: %v counted %d, %v counted %d", core.Invariants()[0], want, inv, c))
		}
		out = append(out, InvariantTiming{Invariant: inv, Seconds: best, Count: c})
	}
	return out
}

// DatasetRow is one row of the Fig 9 table.
type DatasetRow struct {
	Name        string
	V1, V2      int
	Edges       int64
	Butterflies int64
	PaperCount  int64 // KONECT's count, for the paper-vs-measured column
	Seconds     float64
}

// Fig9 computes the dataset-statistics table over the named datasets.
func Fig9(names []string, dataDir string, scale int) ([]DatasetRow, error) {
	rows := make([]DatasetRow, 0, len(names))
	for _, name := range names {
		g, err := LoadDataset(name, dataDir, scale)
		if err != nil {
			return nil, err
		}
		spec, err := gen.PaperDatasetSpec(name)
		if err != nil {
			return nil, err
		}
		d, c := TimeIt(func() int64 { return core.CountAuto(g) })
		rows = append(rows, DatasetRow{
			Name: name, V1: g.NumV1(), V2: g.NumV2(), Edges: g.NumEdges(),
			Butterflies: c, PaperCount: spec.PaperButterflies, Seconds: d.Seconds(),
		})
	}
	return rows, nil
}

// TimingTable is the Fig 10/11 grid: one row per dataset, one column
// per invariant.
type TimingTable struct {
	Threads int
	Rows    []TimingRow
}

// TimingRow is one dataset's timings.
type TimingRow struct {
	Dataset string
	Cells   []InvariantTiming
}

// TimingGridRepeat measures invariants 1–8 across the named datasets
// with the given thread count and min-of-`repeat` timing per cell.
func TimingGridRepeat(names []string, dataDir string, scale, threads, repeat int) (*TimingTable, error) {
	t := &TimingTable{Threads: threads}
	for _, name := range names {
		g, err := LoadDataset(name, dataDir, scale)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, TimingRow{Dataset: name, Cells: TimeInvariantsBest(g, threads, repeat)})
	}
	return t, nil
}
