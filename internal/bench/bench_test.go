package bench

import (
	"path/filepath"
	"strings"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/gen"
	"butterfly/internal/konect"
)

func TestLoadDatasetSynthetic(t *testing.T) {
	g, err := LoadDataset("arxiv-cond-mat", "", 50)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 {
		t.Fatal("scaled dataset has no edges")
	}
	if _, err := LoadDataset("unknown", "", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestLoadDatasetFromFile(t *testing.T) {
	dir := t.TempDir()
	src := gen.CompleteBipartite(3, 3)
	if err := konect.WriteFile(filepath.Join(dir, "mydata"), src); err != nil {
		t.Fatal(err)
	}
	g, err := LoadDataset("mydata", dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 9 {
		t.Fatalf("loaded %d edges, want 9", g.NumEdges())
	}
}

func TestTimeInvariantsAgree(t *testing.T) {
	g := gen.PowerLawBipartite(150, 120, 900, 0.7, 0.7, 5)
	for _, threads := range []int{1, 3} {
		cells := TimeInvariantsBest(g, threads, 1)
		if len(cells) != core.NumInvariants {
			t.Fatalf("%d cells", len(cells))
		}
		for _, c := range cells[1:] {
			if c.Count != cells[0].Count {
				t.Fatalf("count mismatch across invariants")
			}
		}
	}
}

func TestFig9SmallScale(t *testing.T) {
	rows, err := Fig9([]string{"arxiv-cond-mat", "record-labels"}, "", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.V1 == 0 || r.Edges == 0 || r.PaperCount == 0 {
			t.Fatalf("row %+v incomplete", r)
		}
	}
	var sb strings.Builder
	PrintFig9(&sb, rows)
	if !strings.Contains(sb.String(), "record-labels") {
		t.Fatal("printed table missing dataset")
	}
}

func TestTimingGridAndPrint(t *testing.T) {
	grid, err := TimingGridRepeat([]string{"arxiv-cond-mat"}, "", 100, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Threads != 2 || len(grid.Rows) != 1 || len(grid.Rows[0].Cells) != 8 {
		t.Fatalf("grid shape wrong: %+v", grid)
	}
	var sb strings.Builder
	PrintTimingTable(&sb, grid)
	out := sb.String()
	for _, inv := range core.Invariants() {
		if !strings.Contains(out, inv.String()) {
			t.Fatalf("printed grid missing %v", inv)
		}
	}
}

func TestPartitionSweep(t *testing.T) {
	pts := PartitionSweep(600, 2000, []float64{0.2, 0.5, 0.8}, 3)
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	var sb strings.Builder
	PrintPartitionSweep(&sb, pts)
	if !strings.Contains(sb.String(), "winner") {
		t.Fatal("sweep print missing header")
	}
	// Degenerate ratios are skipped.
	if got := PartitionSweep(10, 20, []float64{0.01}, 1); len(got) != 0 {
		t.Fatal("degenerate ratio not skipped")
	}
}

func TestSparsitySweep(t *testing.T) {
	pts := SparsitySweep(200, 200, []int64{200, 1000, 5000}, 4)
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].Edges >= pts[2].Edges {
		t.Fatal("edge counts not increasing")
	}
	var sb strings.Builder
	PrintSparsitySweep(&sb, pts)
	if sb.Len() == 0 {
		t.Fatal("empty print")
	}
}

func TestLookAheadAblation(t *testing.T) {
	rows, err := LookAheadAblation([]string{"producers"}, "", 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Dataset != "producers" {
		t.Fatalf("rows = %+v", rows)
	}
	var sb strings.Builder
	PrintLookAhead(&sb, rows)
	if !strings.Contains(sb.String(), "producers") {
		t.Fatal("print missing dataset")
	}
}

func TestBlockedAndOrderAblations(t *testing.T) {
	g := gen.PowerLawBipartite(200, 150, 1200, 0.7, 0.7, 6)
	blocked := BlockedAblation(g, []int{1, 64, 512})
	if len(blocked) != 3 || blocked[1].BlockSize != 64 {
		t.Fatalf("blocked = %+v", blocked)
	}
	var sb strings.Builder
	PrintBlocked(&sb, blocked)
	if !strings.Contains(sb.String(), "unblocked") {
		t.Fatal("blocked print missing unblocked label")
	}

	order := OrderAblation(g)
	if len(order) != 3 {
		t.Fatalf("order = %+v", order)
	}
	sb.Reset()
	PrintOrder(&sb, order)
	if !strings.Contains(sb.String(), "degree-asc") {
		t.Fatal("order print missing label")
	}
}

func TestBaselineComparison(t *testing.T) {
	g := gen.PowerLawBipartite(120, 100, 700, 0.7, 0.7, 7)
	pts := BaselineComparison(g)
	if len(pts) != 6 {
		t.Fatalf("%d baselines", len(pts))
	}
	for _, p := range pts[1:] {
		if p.Count != pts[0].Count {
			t.Fatalf("%s disagrees: %d vs %d", p.Name, p.Count, pts[0].Count)
		}
	}
	var sb strings.Builder
	PrintBaselines(&sb, pts)
	if !strings.Contains(sb.String(), "vertex-priority") {
		t.Fatal("baseline print incomplete")
	}
}

func TestBalanceTable(t *testing.T) {
	rows, err := BalanceTable([]string{"arxiv-cond-mat", "github"}, "", 50, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Threads != 6 || len(r.PerWorker) != 6 {
			t.Fatalf("row %+v has wrong worker count", r)
		}
		if r.Imbalance < 1.0 {
			t.Fatalf("impossible imbalance %.3f", r.Imbalance)
		}
	}
	var sb strings.Builder
	PrintBalance(&sb, rows)
	if !strings.Contains(sb.String(), "max/mean") {
		t.Fatal("balance print missing header")
	}
	if _, err := BalanceTable([]string{"nope"}, "", 1, 2); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestDynamicThroughput(t *testing.T) {
	g := gen.PowerLawBipartite(300, 250, 1500, 0.7, 0.7, 8)
	p := DynamicThroughput(g, 500, 9)
	if p.Updates != 500 || p.PerSecond <= 0 {
		t.Fatalf("point = %+v", p)
	}
	var sb strings.Builder
	PrintDynamic(&sb, p)
	if !strings.Contains(sb.String(), "updates/s") {
		t.Fatal("dynamic print missing header")
	}
}

func TestPeelingComparison(t *testing.T) {
	g := gen.PowerLawBipartite(200, 150, 1000, 0.7, 0.7, 10)
	pts := PeelingComparison(g, 1, 2)
	var sb strings.Builder
	PrintPeeling(&sb, pts)
	for _, name := range []string{"ktip-recount", "ktip-lookahead", "tip-numbers-delta", "tip-numbers-recount", "kwing-recount"} {
		if !strings.Contains(sb.String(), name) {
			t.Fatalf("peeling print lacks %q: %q", name, sb.String())
		}
	}
	if len(pts) != 5 {
		t.Fatalf("%d variants", len(pts))
	}
}

func TestDistTable(t *testing.T) {
	rows, err := DistTable([]string{"record-labels"}, "", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].MaxDegV2 <= 0 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].GiniV2 <= 0 || rows[0].GiniV2 >= 1 {
		t.Fatalf("Gini out of range: %+v", rows[0])
	}
	var sb strings.Builder
	PrintDist(&sb, rows)
	if !strings.Contains(sb.String(), "Gini") {
		t.Fatal("dist print incomplete")
	}
	if _, err := DistTable([]string{"nope"}, "", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestEstimatorComparison(t *testing.T) {
	g := gen.PowerLawBipartite(300, 250, 2000, 0.7, 0.7, 14)
	pts := EstimatorComparison(g, 500, 0.5, 15)
	if len(pts) != 4 {
		t.Fatalf("%d estimators", len(pts))
	}
	if pts[0].RelErr != 0 {
		t.Fatalf("reference rel err %.3f", pts[0].RelErr)
	}
	var sb strings.Builder
	PrintEstimators(&sb, pts)
	if !strings.Contains(sb.String(), "sparsify") {
		t.Fatal("estimator print incomplete")
	}
}

func TestCSVWriters(t *testing.T) {
	grid, err := TimingGridRepeat([]string{"arxiv-cond-mat"}, "", 200, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteTimingCSV(&sb, grid); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d CSV lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "dataset,Inv1,") {
		t.Fatalf("header: %q", lines[0])
	}
	if len(strings.Split(lines[1], ",")) != 9 {
		t.Fatalf("row fields: %q", lines[1])
	}

	rows, err := Fig9([]string{"arxiv-cond-mat"}, "", 200)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := WriteFig9CSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "butterflies_paper") {
		t.Fatalf("fig9 CSV: %q", sb.String())
	}
}

func TestSignificanceTable(t *testing.T) {
	rows, err := SignificanceTable([]string{"arxiv-cond-mat"}, "", 100, 3, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Observed <= 0 {
		t.Fatalf("rows = %+v", rows)
	}
	var sb strings.Builder
	PrintSignificance(&sb, rows)
	if !strings.Contains(sb.String(), "z-score") {
		t.Fatal("significance print incomplete")
	}
	if _, err := SignificanceTable([]string{"nope"}, "", 1, 2, 2, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestTimingGridRepeat(t *testing.T) {
	grid, err := TimingGridRepeat([]string{"arxiv-cond-mat"}, "", 300, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Rows[0].Cells) != 8 {
		t.Fatal("grid shape wrong")
	}
	// repeat < 1 clamps.
	cells := TimeInvariantsBest(gen.CompleteBipartite(4, 4), 1, 0)
	if len(cells) != 8 || cells[0].Count != 36 {
		t.Fatal("clamped repeat wrong")
	}
}
