package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent process re-executes itself with -child for every workload.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmokeAllWorkloads runs every workload at scale 50 for one second,
// traced, and checks that the last line carries every end-to-end
// metric (in the result file) and every per-layer metric (on the line)
// with its unit, and that no bfserved outlives the run.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and builds bfserved")
	}
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-smoke", "-seconds", "1", "-seed", "3", "-trace", "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var final struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &final); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, stdout.String())
	}
	if !final.Correct || final.Failed != 0 || final.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", final.Correct, final.Attempted, final.Failed)
	}
	for _, w := range sp.workloadNames() {
		for _, m := range sp.PerLayer {
			if v, ok := final.Metrics[w+"/"+m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s missing or without unit %q: %+v", w, m.Name, m.Unit, v)
			}
		}
	}

	files, _ := filepath.Glob(filepath.Join(out, "*-traced-*.json"))
	if len(files) != 1 {
		t.Fatalf("want one result file, found %v", files)
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var rf runFile
	if err := json.Unmarshal(b, &rf); err != nil {
		t.Fatal(err)
	}
	if rf.Env.NumCPU == 0 || rf.Env.GoVersion == "" || rf.Env.SourceDigest == "" {
		t.Errorf("fingerprint incomplete: %+v", rf.Env)
	}
	for _, r := range rf.Workloads {
		for _, m := range sp.EndToEnd {
			v, ok := r.Metrics[m.Name]
			if !ok || v.Unit != m.Unit || !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s missing, zero or without unit %q: %+v", r.Workload, m.Name, m.Unit, v)
			}
		}
		if len(r.Setup) != setupRepeats || len(r.Samples) == 0 {
			t.Errorf("%s: raw set-up times or samples missing", r.Workload)
		}
		if _, err := os.Stat(r.SpanFile); err != nil {
			t.Errorf("%s: span file: %v", r.Workload, err)
		}
	}
	if left := runningServers(filepath.Join(root, ".bench_build", "bin", "bfserved")); len(left) > 0 {
		t.Errorf("bfserved still running after the benchmark: %v", left)
	}
}

// runningServers lists the processes executing bin.
func runningServers(bin string) []string {
	var left []string
	dirs, _ := filepath.Glob("/proc/[0-9]*")
	for _, d := range dirs {
		cmd, err := os.ReadFile(filepath.Join(d, "cmdline"))
		if err != nil {
			continue
		}
		if argv0, _, _ := strings.Cut(string(cmd), "\x00"); argv0 == bin {
			if st, err := os.ReadFile(filepath.Join(d, "stat")); err == nil && !strings.Contains(string(st), ") Z ") {
				left = append(left, filepath.Base(d))
			}
		}
	}
	return left
}
