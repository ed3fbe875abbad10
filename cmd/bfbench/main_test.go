package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFig9(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-table", "fig9", "-scale", "200"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Fig 9", "arxiv-cond-mat", "github", "Butterflies (paper)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in: %q", want, out)
		}
	}
}

func TestRunFig10And11(t *testing.T) {
	for _, table := range []string{"fig10", "fig11"} {
		var sb strings.Builder
		if err := run([]string{"-table", table, "-scale", "200", "-threads", "2"}, &sb); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		if !strings.Contains(out, "Inv1") || !strings.Contains(out, "Inv8") {
			t.Fatalf("%s: missing invariant columns: %q", table, out)
		}
	}
}

func TestRunBalance(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-table", "balance", "-scale", "100", "-threads", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "max/mean") {
		t.Fatalf("output: %q", sb.String())
	}
}

func TestRunSweepsAndAblations(t *testing.T) {
	for table, marker := range map[string]string{
		"partition": "winner",
		"sparsity":  "density",
		"lookahead": "speedup",
		"blocked":   "unblocked",
		"baselines": "vertex-priority",
	} {
		var sb strings.Builder
		if err := run([]string{"-table", table, "-scale", "400"}, &sb); err != nil {
			t.Fatalf("%s: %v", table, err)
		}
		if !strings.Contains(sb.String(), marker) {
			t.Fatalf("%s: missing %q in %q", table, marker, sb.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-table", "nope"}, &sb); err == nil {
		t.Fatal("unknown table accepted")
	}
	if err := run([]string{"-bogus"}, &sb); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunDynamic(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-table", "dynamic", "-scale", "200"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "updates/s") {
		t.Fatalf("output: %q", sb.String())
	}
}

func TestRunDistAndPeeling(t *testing.T) {
	for table, marker := range map[string]string{
		"dist":    "Gini",
		"peeling": "tip-numbers-recount",
	} {
		var sb strings.Builder
		if err := run([]string{"-table", table, "-scale", "200"}, &sb); err != nil {
			t.Fatalf("%s: %v", table, err)
		}
		if !strings.Contains(sb.String(), marker) {
			t.Fatalf("%s: missing %q in %q", table, marker, sb.String())
		}
	}
}

func TestRunEstimators(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-table", "estimators", "-scale", "200"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rel. error") {
		t.Fatalf("output: %q", sb.String())
	}
}

func TestRunCSVExport(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-table", "fig9", "-scale", "200", "-csv", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig9.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "dataset,v1,v2,") {
		t.Fatalf("CSV: %q", string(data)[:40])
	}
	if err := run([]string{"-table", "fig10", "-scale", "400", "-csv", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig10.csv")); err != nil {
		t.Fatal(err)
	}
	// Bad directory errors.
	if err := run([]string{"-table", "fig9", "-scale", "400", "-csv", "/no/such/dir"}, &sb); err == nil {
		t.Fatal("bad csv dir accepted")
	}
}

func TestRunSignificance(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-table", "significance", "-scale", "300"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "z-score") {
		t.Fatalf("output: %q", sb.String())
	}
}
