package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"

	"butterfly/internal/core"
)

// PrintFig9 renders the dataset table in the layout of the paper's
// Fig 9, with a paper-vs-measured butterfly column (the stand-ins
// preserve sizes, not counts; see DESIGN.md §4).
func PrintFig9(w io.Writer, rows []DatasetRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\t|V1|\t|V2|\t|E|\tButterflies (measured)\tButterflies (paper)\tCount time (s)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%.3f\n",
			r.Name, r.V1, r.V2, r.Edges, r.Butterflies, r.PaperCount, r.Seconds)
	}
	tw.Flush()
}

// PrintTimingTable renders a Fig 10/11-style grid: datasets down,
// invariants across, seconds in the cells.
func PrintTimingTable(w io.Writer, t *TimingTable) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Dataset (threads=%d)", t.Threads)
	for _, inv := range core.Invariants() {
		fmt.Fprintf(tw, "\t%v", inv)
	}
	fmt.Fprintln(tw)
	for _, row := range t.Rows {
		fmt.Fprintf(tw, "%s", row.Dataset)
		for _, c := range row.Cells {
			fmt.Fprintf(tw, "\t%.3f", c.Seconds)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// PrintPartitionSweep renders claim C1's sweep.
func PrintPartitionSweep(w io.Writer, pts []PartitionPoint) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "|V1|\t|V2|\t|E|\tbest Inv1-4 (s)\tbest Inv5-8 (s)\twinner")
	for _, p := range pts {
		winner := "family 1-4 (partitions V2)"
		if p.SecFamily58 < p.SecFamily14 {
			winner = "family 5-8 (partitions V1)"
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.3f\t%.3f\t%s\n",
			p.V1, p.V2, p.Edges, p.SecFamily14, p.SecFamily58, winner)
	}
	tw.Flush()
}

// PrintSparsitySweep renders claim C2's sweep.
func PrintSparsitySweep(w io.Writer, pts []SparsityPoint) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "|E|\tdensity\tseconds\tbutterflies")
	for _, p := range pts {
		fmt.Fprintf(tw, "%d\t%.2e\t%.3f\t%d\n", p.Edges, p.Density, p.Seconds, p.Count)
	}
	tw.Flush()
}

// PrintLookAhead renders claim C3's ablation.
func PrintLookAhead(w io.Writer, rows []LookAheadRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tInv1 (s)\tInv2 (s)\tspeedup\tInv8 (s)\tInv7 (s)\tspeedup")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.2fx\t%.3f\t%.3f\t%.2fx\n",
			r.Dataset, r.EagerCols, r.AheadCols, r.ColsSpeedup, r.EagerRows, r.AheadRows, r.RowsSpeed)
	}
	tw.Flush()
}

// PrintBlocked renders the blocked-variant ablation.
func PrintBlocked(w io.Writer, pts []BlockedPoint) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "block size\tseconds")
	for _, p := range pts {
		label := fmt.Sprintf("%d", p.BlockSize)
		if p.BlockSize <= 1 {
			label = "unblocked"
		}
		fmt.Fprintf(tw, "%s\t%.3f\n", label, p.Seconds)
	}
	tw.Flush()
}

// PrintBaselines renders the baseline comparison.
func PrintBaselines(w io.Writer, pts []BaselinePoint) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tseconds\tbutterflies")
	for _, p := range pts {
		fmt.Fprintf(tw, "%s\t%.3f\t%d\n", p.Name, p.Seconds, p.Count)
	}
	tw.Flush()
}

// PrintBalance renders the parallel work-balance table.
func PrintBalance(w io.Writer, rows []BalanceRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tinvariant\tworkers\tmax/mean load\tper-worker wedge steps")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%v\t%d\t%.3f\t%v\n", r.Dataset, r.Invariant, r.Threads, r.Imbalance, r.PerWorker)
	}
	tw.Flush()
}

// PrintDynamic renders the dynamic-throughput result.
func PrintDynamic(w io.Writer, p DynamicPoint) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tupdates\tseconds\tupdates/s")
	fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.0f\n", p.Name, p.Updates, p.Seconds, p.PerSecond)
	tw.Flush()
}

// PrintPeeling renders the peeling-variant comparison.
func PrintPeeling(w io.Writer, pts []PeelingPoint) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "variant\tseconds")
	for _, p := range pts {
		fmt.Fprintf(tw, "%s\t%.3f\n", p.Name, p.Seconds)
	}
	tw.Flush()
}

// PrintDist renders the dataset characterization table.
func PrintDist(w io.Writer, rows []DistRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tmax deg V1\tmax deg V2\tGini V1\tGini V2\twedges(V1 ends)\twedges(V2 ends)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.3f\t%.3f\t%d\t%d\n",
			r.Dataset, r.MaxDegV1, r.MaxDegV2, r.GiniV1, r.GiniV2, r.WedgesV1, r.WedgesV2)
	}
	tw.Flush()
}

// PrintEstimators renders the estimator comparison.
func PrintEstimators(w io.Writer, pts []EstimatorPoint) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "estimator\tseconds\testimate\trel. error")
	for _, p := range pts {
		fmt.Fprintf(tw, "%s\t%.3f\t%.0f\t%.1f%%\n", p.Name, p.Seconds, p.Estimate, 100*p.RelErr)
	}
	tw.Flush()
}

// WriteTimingCSV emits a Fig 10/11 grid as CSV (dataset, then one
// column per invariant, seconds) for plotting pipelines.
func WriteTimingCSV(w io.Writer, t *TimingTable) error {
	cw := csv.NewWriter(w)
	header := []string{"dataset"}
	for _, inv := range core.Invariants() {
		header = append(header, inv.String())
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		rec := []string{row.Dataset}
		for _, c := range row.Cells {
			rec = append(rec, strconv.FormatFloat(c.Seconds, 'f', 6, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig9CSV emits the dataset table as CSV.
func WriteFig9CSV(w io.Writer, rows []DatasetRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"dataset", "v1", "v2", "edges", "butterflies_measured", "butterflies_paper", "seconds"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Name,
			strconv.Itoa(r.V1), strconv.Itoa(r.V2),
			strconv.FormatInt(r.Edges, 10),
			strconv.FormatInt(r.Butterflies, 10),
			strconv.FormatInt(r.PaperCount, 10),
			strconv.FormatFloat(r.Seconds, 'f', 6, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// PrintSignificance renders the null-model table.
func PrintSignificance(w io.Writer, rows []SignificanceRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tobserved ΞG\tnull mean\tnull std\tz-score")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%.1f\n", r.Dataset, r.Observed, r.NullMean, r.NullStd, r.ZScore)
	}
	tw.Flush()
}
