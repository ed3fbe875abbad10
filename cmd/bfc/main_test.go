package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"butterfly"
)

func writeTestGraph(t *testing.T) string {
	t.Helper()
	g, err := butterfly.GenerateComplete(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.k33")
	if err := g.WriteKONECTFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCountFile(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-file", writeTestGraph(t), "-stats"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "butterflies = 9") {
		t.Fatalf("output missing count: %q", out)
	}
	if !strings.Contains(out, "clustering coefficient = 1.000000") {
		t.Fatalf("output missing clustering: %q", out)
	}
	if !strings.Contains(out, "density=") {
		t.Fatalf("output missing stats: %q", out)
	}
}

func TestRunMatrixMarket(t *testing.T) {
	g, err := butterfly.GenerateComplete(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.mtx")
	if err := g.WriteMatrixMarketFile(path); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-mm", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "butterflies = 1") {
		t.Fatalf("output: %q", sb.String())
	}
}

func TestRunDatasetAndOptions(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-dataset", "arxiv-cond-mat", "-scale", "100",
		"-invariant", "7", "-threads", "2"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Inv7") {
		t.Fatalf("output: %q", sb.String())
	}
}

func TestRunAll(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-file", writeTestGraph(t), "-all"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, inv := range []string{"Inv1", "Inv8"} {
		if !strings.Contains(sb.String(), inv) {
			t.Fatalf("missing %s in: %q", inv, sb.String())
		}
	}
}

func TestRunVerify(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-file", writeTestGraph(t), "-verify"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "verified") {
		t.Fatalf("output: %q", sb.String())
	}
}

func TestRunEstimates(t *testing.T) {
	path := writeTestGraph(t)
	for _, kind := range []string{"vertices", "edges", "sparsify"} {
		var sb strings.Builder
		if err := run([]string{"-file", path, "-estimate", kind, "-samples", "10", "-p", "1"}, &sb); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !strings.Contains(sb.String(), "estimated butterflies") {
			t.Fatalf("%s output: %q", kind, sb.String())
		}
	}
}

// TestRunEstimateJSON checks -estimate honors -json: one JSON object,
// strategy-appropriate parameter fields, and a deterministic estimate
// for the chosen seed (sparsify with p=1 keeps every edge, so the
// estimate is exact).
func TestRunEstimateJSON(t *testing.T) {
	path := writeTestGraph(t)
	var sb strings.Builder
	if err := run([]string{"-file", path, "-estimate", "sparsify", "-p", "1", "-seed", "7", "-json"}, &sb); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("estimate output not JSON: %v\n%q", err, sb.String())
	}
	if got["estimate"].(float64) != 9 { // K33 has exactly 9, p=1 is exact
		t.Fatalf("sparsify p=1 estimate = %v, want 9", got["estimate"])
	}
	if got["strategy"] != "sparsify" || got["p"].(float64) != 1 || got["seed"].(float64) != 7 {
		t.Fatalf("JSON fields wrong: %v", got)
	}
	if _, ok := got["samples"]; ok {
		t.Fatalf("sparsify JSON carries samples field: %v", got)
	}

	sb.Reset()
	if err := run([]string{"-file", path, "-estimate", "edges", "-samples", "50", "-json"}, &sb); err != nil {
		t.Fatal(err)
	}
	got = nil
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("edges estimate not JSON: %v\n%q", err, sb.String())
	}
	if got["strategy"] != "edges" || got["samples"].(float64) != 50 {
		t.Fatalf("JSON fields wrong: %v", got)
	}
	if _, ok := got["p"]; ok {
		t.Fatalf("edges JSON carries p field: %v", got)
	}
	// Same seed, same estimate: determinism is part of the contract.
	var sb2 strings.Builder
	if err := run([]string{"-file", path, "-estimate", "edges", "-samples", "50", "-json"}, &sb2); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sb2.String() {
		// elapsed seconds differ; compare just the estimates
		var a, b map[string]any
		json.Unmarshal([]byte(sb.String()), &a)
		json.Unmarshal([]byte(sb2.String()), &b)
		if a["estimate"] != b["estimate"] {
			t.Fatalf("same seed, different estimates: %v vs %v", a["estimate"], b["estimate"])
		}
	}
}

func TestRunList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "github") {
		t.Fatalf("list output: %q", sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := map[string][]string{
		"noInput":      {},
		"bothInputs":   {"-file", "x", "-dataset", "y"},
		"removedOrder": {"-dataset", "github", "-scale", "500", "-order", "degree-desc"},
		"removedHub":   {"-dataset", "github", "-scale", "500", "-hub", "never"},
		"badEstimate":  {"-dataset", "github", "-scale", "500", "-estimate", "bogus"},
		"badInvariant": {"-dataset", "github", "-scale", "500", "-invariant", "99"},
		"missingFile":  {"-file", "/no/such/file"},
		"badFlag":      {"-nope"},
		"badDataset":   {"-dataset", "nope"},
	}
	for name, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestRunAlgorithms(t *testing.T) {
	path := writeTestGraph(t)
	for _, alg := range []string{"family", "wedge-hash", "vertex-priority", "sort-aggregate", "spgemm"} {
		var sb strings.Builder
		if err := run([]string{"-file", path, "-algorithm", alg}, &sb); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !strings.Contains(sb.String(), "butterflies = 9") {
			t.Fatalf("%s output: %q", alg, sb.String())
		}
	}
	var sb strings.Builder
	if err := run([]string{"-file", path, "-algorithm", "bogus"}, &sb); err == nil {
		t.Fatal("bad algorithm accepted")
	}
}

func TestRunJSON(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-file", writeTestGraph(t), "-json"}, &sb); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("output not JSON: %v\n%q", err, sb.String())
	}
	if got["butterflies"].(float64) != 9 {
		t.Fatalf("JSON butterflies = %v", got["butterflies"])
	}
	if got["algorithm"] != "family" || got["clustering"].(float64) != 1 {
		t.Fatalf("JSON fields wrong: %v", got)
	}
}

func TestRunProject(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-file", writeTestGraph(t), "-project", "v1", "-min-shared", "3", "-top", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "3 pairs with ≥3 shared neighbors") {
		t.Fatalf("output: %q", out)
	}
	if !strings.Contains(out, "… 1 more") {
		t.Fatalf("top cap not applied: %q", out)
	}
	if err := run([]string{"-file", writeTestGraph(t), "-project", "bogus"}, &sb); err == nil {
		t.Fatal("bad side accepted")
	}
}

// TestRunAggModes: every -agg mode counts K33's 9 butterflies, and a bad mode is rejected.
func TestRunAggModes(t *testing.T) {
	path := writeTestGraph(t)
	for _, agg := range []string{"auto", "sort", "hash", "hist", "batch"} {
		var sb strings.Builder
		if err := run([]string{"-file", path, "-agg", agg}, &sb); err != nil {
			t.Fatalf("%s: %v", agg, err)
		}
		if !strings.Contains(sb.String(), "butterflies = 9") {
			t.Fatalf("%s output: %q", agg, sb.String())
		}
	}
	var sb strings.Builder
	if err := run([]string{"-file", path, "-agg", "bogus"}, &sb); err == nil {
		t.Fatal("bad -agg accepted")
	}
	if err := run([]string{"-file", path, "-agg", "sort", "-algorithm", "spgemm"}, &sb); err == nil {
		t.Fatal("-agg with non-family algorithm accepted")
	}
}

// TestRunAggJSON checks -agg honors -json: the JSON reports the mode
// actually used, which for an explicit mode is that mode and for auto
// is the concrete resolved mode, never "auto".
func TestRunAggJSON(t *testing.T) {
	path := writeTestGraph(t)
	var sb strings.Builder
	if err := run([]string{"-file", path, "-agg", "batch", "-json"}, &sb); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("output not JSON: %v\n%q", err, sb.String())
	}
	if got["agg"] != "batch" {
		t.Fatalf("JSON agg = %v, want batch", got["agg"])
	}
	sb.Reset()
	if err := run([]string{"-file", path, "-json"}, &sb); err != nil {
		t.Fatal(err)
	}
	got = nil
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatal(err)
	}
	switch got["agg"] {
	case "sort", "hash", "hist", "batch":
	default:
		t.Fatalf("auto must resolve to a concrete mode in JSON, got %v", got["agg"])
	}
	if got["butterflies"].(float64) != 9 {
		t.Fatalf("JSON butterflies = %v", got["butterflies"])
	}
}
