// Command bfbench regenerates the tables and figures of the paper's
// evaluation (Section V) plus this implementation's ablations.
//
// Tables:
//
//	fig9       dataset statistics and butterfly counts (paper Fig 9)
//	fig10      sequential runtimes, invariants 1–8 × datasets (Fig 10)
//	fig11      parallel runtimes with -threads workers (Fig 11)
//	partition  claim C1: the winning family follows the smaller side
//	sparsity   claim C2: sparser graphs count faster
//	lookahead  claim C3: look-ahead family members vs eager ones
//	blocked    blocked-variant block-size sweep
//	baselines  family vs wedge-hash / vertex-priority / SpGEMM
//	all        everything above
//
// By default the synthetic stand-ins are generated at the paper's full
// sizes (-scale 1); real KONECT files under -data <dir>/<name> are
// used when present. Use -scale 10 for a quick pass.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"butterfly/internal/bench"
	"butterfly/internal/gen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bfbench", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		table   = fs.String("table", "all", "fig9|fig10|fig11|balance|partition|sparsity|lookahead|blocked|baselines|dynamic|dist|peeling|estimators|significance|all")
		scale   = fs.Int("scale", 1, "dataset shrink factor (1 = paper-size)")
		threads = fs.Int("threads", 6, "workers for fig11 (the paper used 6)")
		dataDir = fs.String("data", "", "directory with real KONECT files (optional)")
		csvDir  = fs.String("csv", "", "also write fig9/fig10/fig11 as CSV files into this directory")
		repeat  = fs.Int("repeat", 1, "min-of-N timing per fig10/fig11 cell")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	names := gen.PaperDatasetNames()

	want := func(t string) bool { return *table == t || *table == "all" }
	ran := false

	if want("fig9") {
		ran = true
		section(out, "Fig 9: dataset statistics")
		rows, err := bench.Fig9(names, *dataDir, *scale)
		if err != nil {
			return err
		}
		bench.PrintFig9(out, rows)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, "fig9.csv", func(w io.Writer) error {
				return bench.WriteFig9CSV(w, rows)
			}); err != nil {
				return err
			}
		}
	}
	if want("fig10") {
		ran = true
		section(out, "Fig 10: sequential runtimes (s), invariants 1–8")
		grid, err := bench.TimingGridRepeat(names, *dataDir, *scale, 1, *repeat)
		if err != nil {
			return err
		}
		bench.PrintTimingTable(out, grid)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, "fig10.csv", func(w io.Writer) error {
				return bench.WriteTimingCSV(w, grid)
			}); err != nil {
				return err
			}
		}
	}
	if want("fig11") {
		ran = true
		section(out, fmt.Sprintf("Fig 11: parallel runtimes (s), %d threads", *threads))
		grid, err := bench.TimingGridRepeat(names, *dataDir, *scale, *threads, *repeat)
		if err != nil {
			return err
		}
		bench.PrintTimingTable(out, grid)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, "fig11.csv", func(w io.Writer) error {
				return bench.WriteTimingCSV(w, grid)
			}); err != nil {
				return err
			}
		}
	}
	if want("partition") {
		ran = true
		section(out, "Claim C1: partition the smaller vertex side")
		budget, edges := 200000/max(1, *scale), int64(600000/max(1, *scale))
		pts := bench.PartitionSweep(budget, edges, []float64{0.1, 0.25, 0.5, 0.75, 0.9}, 41)
		bench.PrintPartitionSweep(out, pts)
	}
	if want("sparsity") {
		ran = true
		section(out, "Claim C2: edge sparsity (fixed vertex sets)")
		m, n := 56519/max(1, *scale), 120867/max(1, *scale)
		base := int64(440237 / max(1, *scale))
		pts := bench.SparsitySweep(m, n, []int64{base / 8, base / 4, base / 2, base}, 42)
		bench.PrintSparsitySweep(out, pts)
	}
	if want("balance") {
		ran = true
		section(out, fmt.Sprintf("Fig 11 substitute: simulated work balance (%d workers)", *threads))
		rows, err := bench.BalanceTable(names, *dataDir, *scale, *threads)
		if err != nil {
			return err
		}
		bench.PrintBalance(out, rows)
	}
	if want("lookahead") {
		ran = true
		section(out, "Claim C3: look-ahead vs eager family members")
		rows, err := bench.LookAheadAblation(names, *dataDir, *scale)
		if err != nil {
			return err
		}
		bench.PrintLookAhead(out, rows)
	}
	if want("blocked") {
		ran = true
		section(out, "Ablation: blocked variants (occupations stand-in)")
		g, err := bench.LoadDataset("occupations", *dataDir, *scale)
		if err != nil {
			return err
		}
		bench.PrintBlocked(out, bench.BlockedAblation(g, []int{1, 16, 64, 256, 1024, 4096}))
	}
	if want("dist") {
		ran = true
		section(out, "Dataset characterization: degree skew and wedge work")
		rows, err := bench.DistTable(names, *dataDir, *scale)
		if err != nil {
			return err
		}
		bench.PrintDist(out, rows)
	}
	if want("peeling") {
		ran = true
		section(out, "Section IV: peeling variants (arxiv-cond-mat stand-in, k=2)")
		g, err := bench.LoadDataset("arxiv-cond-mat", *dataDir, *scale)
		if err != nil {
			return err
		}
		bench.PrintPeeling(out, bench.PeelingComparison(g, 2, *threads))
	}
	if want("estimators") {
		ran = true
		section(out, "Extension: estimator accuracy vs time (github stand-in)")
		g, err := bench.LoadDataset("github", *dataDir, *scale)
		if err != nil {
			return err
		}
		bench.PrintEstimators(out, bench.EstimatorComparison(g, 5000, 0.25, 44))
	}
	if want("significance") {
		ran = true
		section(out, "Extension: butterfly significance vs degree-preserving null model")
		rows, err := bench.SignificanceTable(names, *dataDir, *scale, 5, 5, 45)
		if err != nil {
			return err
		}
		bench.PrintSignificance(out, rows)
	}
	if want("dynamic") {
		ran = true
		section(out, "Extension: dynamic counter throughput (producers stand-in)")
		g, err := bench.LoadDataset("producers", *dataDir, *scale)
		if err != nil {
			return err
		}
		bench.PrintDynamic(out, bench.DynamicThroughput(g, 20000/max(1, *scale/4+1)+100, 43))
	}
	if want("baselines") {
		ran = true
		section(out, "Ablation: baselines (arxiv-cond-mat stand-in)")
		g, err := bench.LoadDataset("arxiv-cond-mat", *dataDir, *scale)
		if err != nil {
			return err
		}
		bench.PrintBaselines(out, bench.BaselineComparison(g))
	}

	if !ran {
		return fmt.Errorf("unknown -table %q", *table)
	}
	return nil
}

func writeCSV(dir, name string, fn func(io.Writer) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func section(out io.Writer, title string) {
	fmt.Fprintf(out, "\n== %s ==\n", title)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
