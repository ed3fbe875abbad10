// Command benchmark is the repository's performance benchmark: seeded
// workloads over the library, one bfserved, and a router with two
// shards, reported as end-to-end metrics (untraced) or per-layer
// metrics (-trace). See README.md for the workloads, the metrics and
// how to compare two commits.
//
//	go run . -seed 1                      # every workload, untraced
//	go run . -workload serve-read -trace  # one workload, per-layer
//	go run . -compare base/ head/         # judge a change
//
// Each workload runs in its own child process so that peak memory,
// garbage-collector state and warm caches never carry over. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is what one invocation was asked to do.
type options struct {
	root     string // repository root (holds go.mod of module butterfly)
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool // scale-50 inputs and relaxed sample minimums, for tests
	bfserved string
	out      string
}

// childTimeout bounds one workload process; the whole invocation must
// finish well inside three minutes.
const childTimeout = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	var child, compare bool
	fs.StringVar(&o.workload, "workload", "all", "workload name, comma-separated names, or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: request mix, arrivals and mutation batches")
	fs.IntVar(&o.seconds, "seconds", 10, "length of each timed phase")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "scale-50 inputs and relaxed sample minimums (tests)")
	fs.StringVar(&o.out, "out", "", "result directory (default .bench_build/results under the repository root)")
	fs.BoolVar(&compare, "compare", false, "compare two result sets given as arguments: base head")
	fs.BoolVar(&child, "child", false, "internal: run one workload in this process")
	fs.StringVar(&o.bfserved, "bfserved", "", "internal: path of the bfserved binary")
	if err := fs.Parse(normalizeTraceArg(args)); err != nil {
		return 2
	}
	o.trace = traceFlag != 0

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	o.root = root
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare wants two result sets: base head")
			return 2
		}
		return runCompare(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if child {
		return runChild(o, spec, stdout, stderr)
	}
	return runParent(o, spec, stdout, stderr)
}

// normalizeTraceArg lets -trace stand alone: the flag takes 0 or 1, as
// in "--trace 1", and a bare "-trace" means 1.
func normalizeTraceArg(args []string) []string {
	out := make([]string, 0, len(args)+1)
	for i, a := range args {
		out = append(out, a)
		if a == "-trace" || a == "--trace" {
			if i+1 >= len(args) || strings.HasPrefix(args[i+1], "-") {
				out = append(out, "1")
			}
		}
	}
	return out
}

// findRoot walks up from the working directory to the directory whose
// go.mod declares module butterfly.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(bytes.TrimSpace(b), []byte("module butterfly\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no enclosing directory holds the butterfly module (go.mod with module butterfly)")
		}
		dir = parent
	}
}

// spec is BENCHMARK.json: the workloads and the metrics with their
// units and bounds.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one workload process measured.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Layers    map[string]metricValue `json:"layers,omitempty"`
	// Details are the per-class numbers behind the end-to-end metrics
	// (warm/cold/mutate percentiles, per-dataset medians).
	Details map[string]float64 `json:"details"`
	// Samples are the raw per-operation latencies in ms by class, and
	// Setup the set-up times in s, so any statistic can be recomputed.
	Samples  map[string][]float64 `json:"samples"`
	Setup    []float64            `json:"setup_s_samples"`
	Config   map[string]any       `json:"config"`
	SpanFile string               `json:"span_file,omitempty"`
	// SelfMS is, per span name, the summed self time of a traced run:
	// span durations minus the time their child spans cover.
	SelfMS map[string]float64 `json:"self_ms,omitempty"`
}

// runFile is one invocation's result file.
type runFile struct {
	Schema    string           `json:"schema"`
	Env       fingerprint      `json:"env"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	Smoke     bool             `json:"smoke,omitempty"`
	Started   string           `json:"started"`
	Workloads []workloadResult `json:"workloads"`
}

const schema = "bench/v5"

func runParent(o options, sp *spec, stdout, stderr io.Writer) int {
	names := sp.workloadNames()
	if o.workload != "all" {
		names = strings.Split(o.workload, ",")
		for _, n := range names {
			if workloadFunc(n) == nil {
				fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n", n, strings.Join(sp.workloadNames(), ", "))
				return 2
			}
		}
	}
	if o.out == "" {
		o.out = filepath.Join(o.root, ".bench_build", "results")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	started := time.Now()
	bin, err := buildServer(o.root, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	o.bfserved = bin

	rf := runFile{Schema: schema, Env: takeFingerprint(o.root), Seed: o.seed, Seconds: o.seconds,
		Trace: o.trace, Smoke: o.smoke, Started: started.UTC().Format(time.RFC3339)}
	ok := true
	for _, name := range names {
		res, err := runInChild(o, name, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		if !res.Correct || res.Failed > 0 {
			ok = false
		}
		rf.Workloads = append(rf.Workloads, *res)
	}
	tag := "untraced"
	if o.trace {
		tag = "traced"
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-%s-%d.json", strings.ReplaceAll(o.workload, ",", "+"), o.seed, tag, started.UnixNano()))
	b, err := json.MarshalIndent(&rf, "", " ")
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: write result file:", err)
		return 1
	}
	printReport(stdout, sp, &rf, path)
	if err := printFinal(stdout, &rf); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// buildServer compiles cmd/bfserved of the checkout under test.
func buildServer(root string, stderr io.Writer) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "bfserved")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/bfserved")
	cmd.Dir = root
	cmd.Stdout = stderr
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build bfserved: %w", err)
	}
	return bin, nil
}

// runInChild runs one workload in a fresh process of this binary and
// decodes the result it prints last.
func runInChild(o options, name string, stderr io.Writer) (*workloadResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"-child", "-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-bfserved", o.bfserved, "-out", o.out}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Dir = o.root
	cmd.Stderr = stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("timed out after %v", childTimeout)
	}
	last := lastLine(out.Bytes())
	var res workloadResult
	if err := json.Unmarshal(last, &res); err != nil || res.Workload != name {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result from workload process: %q", trim(last))
	}
	return &res, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// runChild runs one workload in this process and prints its result as
// the last line.
func runChild(o options, sp *spec, stdout, stderr io.Writer) int {
	fn := workloadFunc(o.workload)
	if fn == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	scratch, err := mkTemp(filepath.Join(o.root, ".bench_build", "tmp"), o.workload+"-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	w := &work{o: o, scratch: scratch, e2e: map[string]float64{}, layers: layerSet{}, res: &workloadResult{
		Workload: o.workload, Correct: true,
		Metrics: map[string]metricValue{}, Details: map[string]float64{},
		Samples: map[string][]float64{}, Config: map[string]any{},
	}}
	if err := fn(w); err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", o.workload, err)
		return 1
	}
	res := w.res
	if len(res.Errors) > 0 {
		res.Correct = false
	}
	for _, m := range sp.EndToEnd {
		v, ok := w.e2e[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "benchmark: %s did not measure %s\n", o.workload, m.Name)
			return 1
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for k, v := range res.Details {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(res.Details, k)
		}
	}
	if o.trace {
		res.Layers = map[string]metricValue{}
		for _, m := range sp.PerLayer {
			v := w.layers[m.Name] // 0 for a layer this workload does not exercise
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.Layers[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
		if w.tr != nil {
			res.SelfMS = map[string]float64{}
			for name, d := range selfTimes(w.tr.snapshot()) {
				res.SelfMS[name] = ms(d)
			}
			path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-%d.spans.json", o.workload, o.seed, time.Now().UnixNano()))
			if err := w.tr.writeFile(path); err != nil {
				fmt.Fprintln(stderr, "benchmark: write spans:", err)
				return 1
			}
			res.SpanFile = path
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// printReport writes the human-readable table.
func printReport(w io.Writer, sp *spec, rf *runFile, path string) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintf(bw, "benchmark %s  seed=%d seconds=%d trace=%v  %s, %d CPU, go %s, commit %s dirty=%v src=%s\n",
		rf.Schema, rf.Seed, rf.Seconds, rf.Trace, rf.Env.CPUModel, rf.Env.NumCPU, rf.Env.GoVersion, rf.Env.Commit, rf.Env.Dirty, rf.Env.SourceDigest)
	for _, r := range rf.Workloads {
		fmt.Fprintf(bw, "\n%s  correct=%v attempted=%d failed=%d\n", r.Workload, r.Correct, r.Attempted, r.Failed)
		for _, e := range r.Errors {
			fmt.Fprintf(bw, "  ERROR %s\n", e)
		}
		for _, m := range sp.EndToEnd {
			v := r.Metrics[m.Name]
			fmt.Fprintf(bw, "  %-28s %14.4f %s\n", m.Name, v.Value, v.Unit)
		}
		keys := make([]string, 0, len(r.Details))
		for k := range r.Details {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(bw, "  · %-26s %14.4f\n", k, r.Details[k])
		}
		if rf.Trace {
			for _, m := range sp.PerLayer {
				v := r.Layers[m.Name]
				fmt.Fprintf(bw, "  %-34s %14.4f %s\n", m.Name, v.Value, v.Unit)
			}
			fmt.Fprintf(bw, "  spans: %s\n", r.SpanFile)
		}
	}
	fmt.Fprintf(bw, "\nresult file: %s\n", path)
}

// printFinal writes the one-line JSON summary: for a single workload,
// its end-to-end metrics (or per-layer metrics when traced); for
// several, the same keyed "workload/metric".
func printFinal(w io.Writer, rf *runFile) error {
	type final struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	f := final{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range rf.Workloads {
		f.Correct = f.Correct && r.Correct
		f.Attempted += r.Attempted
		f.Failed += r.Failed
		src := r.Metrics
		if rf.Trace {
			src = r.Layers
		}
		for k, v := range src {
			if len(rf.Workloads) > 1 {
				k = r.Workload + "/" + k
			}
			f.Metrics[k] = v
		}
	}
	b, err := json.Marshal(&f)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
