// Command bfload drives load against a bfserved instance and reports
// throughput and latency — the serving-layer counterpart of bfbench.
//
// It registers a synthetic dataset (unless -no-register), then fires
// -n requests from -c concurrent workers drawn from a weighted
// operation mix (-mix), and prints a latency/throughput summary plus
// per-status counts. Any 5xx response makes bfload exit nonzero, so
// CI can use it as a smoke gate:
//
//	bfload -addr localhost:8080 -graph occupations -dataset occupations -scale 20 -n 1000 -c 8
//	bfload -addr localhost:8080 -graph g -dataset github -scale 50 -json -
//
// Mutation operations insert and delete random edges, exercising the
// copy-on-write snapshot path and invalidating the result cache by
// version bump — a realistic mixed read/write workload.
//
// With -ingest the registration phase streams the dataset through the
// approximate tier instead of registering it wholesale: it opens a
// /v1/ingest stream, appends edges in -ingest-batch NDJSON batches,
// queries /v1/estimate mid-load (asserting a well-formed CI envelope),
// seals, and verifies the sealed exact count against a local offline
// count of the same edges — the end-to-end lifecycle CI runs as a
// smoke gate.
//
// Against a cluster router, -partitions registers the graph
// hash-partitioned across the shards (router scatter-gather counts).
//
// Estimate operations additionally report accuracy: because the exact
// butterfly count of the registered graph is known, the report carries
// the mean and max relative error of every estimate answer
// (estimate_accuracy in -json), turning a load run into a cheap
// statistical acceptance check.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"butterfly"
	"butterfly/client"
	"butterfly/internal/obsv"
	"butterfly/serveapi"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bfload:", err)
		os.Exit(1)
	}
}

type opKind int

const (
	opCount opKind = iota
	opVertex
	opEdges
	opEstimate
	opPeel
	opMutate
	numOps
)

var opNames = [numOps]string{"count", "vertex", "edges", "estimate", "peel", "mutate"}

// report is the machine-readable summary (-json).
type report struct {
	Addr        string             `json:"addr"`
	Graph       string             `json:"graph"`
	Requests    int                `json:"requests"`
	Concurrency int                `json:"concurrency"`
	Mix         string             `json:"mix"`
	ElapsedSec  float64            `json:"elapsed_s"`
	Throughput  float64            `json:"throughput_rps"`
	LatencyMS   latencySummary     `json:"latency_ms"`
	ByOp        map[string]int     `json:"by_op"`
	ByStatus    map[string]int     `json:"by_status"`
	Server5xx   int                `json:"server_5xx"`
	OpLatencyMS map[string]float64 `json:"op_mean_latency_ms"`
	// OpPercentiles reports per-endpoint p50/p95/p99 estimated from a
	// fixed-bucket latency histogram per op (same buckets as the
	// server's bfserved_route_seconds), so client-observed and
	// server-observed latencies compare bucket for bucket.
	OpPercentiles map[string]latencyPct `json:"op_latency_ms"`
	// Retries429 counts requests re-sent after a 429 under -retry429.
	Retries429 int `json:"retries_429,omitempty"`
	// EstimateAccuracy summarizes estimate-op answers against the known
	// exact count (present when the mix ran estimate ops).
	EstimateAccuracy *accuracySummary `json:"estimate_accuracy,omitempty"`
	// TenantMix echoes -tenant-mix; Tenants carries per-tenant
	// admission and latency, present with -tenant-mix or a -replay
	// trace naming tenants. The map key is the tenant name the client
	// sent (which the server may have collapsed to "default").
	TenantMix string                   `json:"tenant_mix,omitempty"`
	Tenants   map[string]*tenantReport `json:"tenants,omitempty"`
	// Replayed is the trace file driven by -replay, if any.
	Replayed string `json:"replayed,omitempty"`
}

// accuracySummary is the per-run estimate accuracy report: relative
// errors of every successful estimate answer vs. the graph's exact
// count at registration time.
type accuracySummary struct {
	Answers    int     `json:"answers"`
	Exact      int64   `json:"exact"`
	MeanRelErr float64 `json:"mean_rel_err"`
	MaxRelErr  float64 `json:"max_rel_err"`
}

type latencySummary struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// latencyPct is the per-op histogram summary.
type latencyPct struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bfload", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr       = fs.String("addr", "localhost:8080", "bfserved address (host:port or URL)")
		graph      = fs.String("graph", "loadtest", "graph name to query")
		dataset    = fs.String("dataset", "occupations", "synthetic dataset to register as -graph")
		scale      = fs.Int("scale", 20, "dataset shrink factor")
		noRegister = fs.Bool("no-register", false, "assume -graph is already registered")
		n          = fs.Int("n", 1000, "total requests")
		c          = fs.Int("c", 8, "concurrent workers")
		mix        = fs.String("mix", "count=5,vertex=1,edges=1,estimate=1,peel=1,mutate=1", "weighted operation mix")
		seed       = fs.Int64("seed", 1, "workload RNG seed")
		timeoutMS  = fs.Int("timeout-ms", 0, "per-request timeout_ms sent to the server (0 = server default)")
		jsonOut    = fs.String("json", "", "write the report as JSON to this file, or - for stdout")
		allow5xx   = fs.Bool("allow-5xx", false, "do not fail on 5xx responses")
		retry429   = fs.Bool("retry429", false, "re-send shed (429) requests after the server's retry_after_ms hint (up to 3 attempts)")
		ingest     = fs.Bool("ingest", false, "stream the dataset through /v1/ingest (estimate mid-load, seal, verify) instead of registering wholesale")
		ingestBat  = fs.Int("ingest-batch", 1000, "edges per append batch with -ingest")
		reservoir  = fs.Int("reservoir", 0, "reservoir capacity for -ingest (0 = server default)")
		partitions = fs.Int("partitions", 0, "register -graph hash-partitioned across this many shards (router only)")
		tenantMix  = fs.String("tenant-mix", "", "comma-separated tenant:priority:weight shares (e.g. gold:interactive:4,bulk:batch:1): issue the op mix under per-tenant QoS identities and report per-tenant admission and latency (see docs/QOS.md)")
		recordPath = fs.String("record", "", "write one {op,tenant,priority} JSON line per request to this file, replayable with -replay")
		replayPath = fs.String("replay", "", "replay a -record JSONL trace (cycling it to -n requests) instead of sampling -mix/-tenant-mix")
		unique     = fs.Bool("unique", false, "vary request parameters per request to defeat the result cache (family counts still coalesce by design)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n <= 0 || *c <= 0 {
		return fmt.Errorf("-n and -c must be positive")
	}
	weights, err := parseMix(*mix)
	if err != nil {
		return err
	}
	tenants, err := parseTenantMix(*tenantMix)
	if err != nil {
		return err
	}
	var trace []traceEntry
	if *replayPath != "" {
		if trace, err = loadTrace(*replayPath); err != nil {
			return err
		}
	}

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	cl := client.New(base)
	clients := newClientCache(base, cl)
	ctx := context.Background()

	switch {
	case *ingest:
		if err := streamIngest(ctx, cl, out, *graph, *dataset, *scale, *ingestBat, *reservoir, *seed); err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
	case !*noRegister:
		info, err := cl.Register(ctx, serveapi.RegisterRequest{
			Name: *graph, Dataset: *dataset, Scale: *scale, Replace: true,
			Partitions: *partitions,
		})
		if err != nil {
			return fmt.Errorf("register: %w", err)
		}
		fmt.Fprintf(out, "registered %s v%d: %dx%d, %d edges, %d butterflies\n",
			info.Name, info.Version, info.NumV1, info.NumV2, info.NumEdges, info.Butterflies)
	}
	info, err := cl.GraphInfo(ctx, *graph)
	if err != nil {
		return fmt.Errorf("graph info: %w", err)
	}

	var (
		mu        sync.Mutex
		latencies = make([]float64, 0, *n)
		byOp      = map[string]int{}
		byStatus  = map[string]int{}
		opLatSum  = map[string]float64{}
		relErrs   []float64
		tallies   = map[string]*tenantTally{}
		recorded  []traceEntry
		fiveXX    atomic.Int64
		retried   atomic.Int64
		next      atomic.Int64
		wg        sync.WaitGroup
	)
	if *recordPath != "" {
		recorded = make([]traceEntry, *n)
	}
	// Estimate accuracy is meaningful only while the exact count stays
	// fixed, so it is tracked unless the mix mutates the graph.
	trackAccuracy := weights[opMutate] == 0 && info.Butterflies > 0
	// Per-op latency histograms (concurrency-safe; observed in
	// seconds, reported in ms) for the p50/p95/p99 table.
	var opHist [numOps]*obsv.Histogram
	for i := range opHist {
		opHist[i] = obsv.NewHistogram(obsv.LatencyBuckets)
	}

	start := time.Now()
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(worker)*7919))
			for {
				i := int(next.Add(1)) - 1
				if i >= *n {
					return
				}
				var op opKind
				var tenant, prio string
				if trace != nil {
					e := trace[i%len(trace)]
					op, _ = opFromName(e.Op) // validated at load
					tenant, prio = e.Tenant, e.Priority
				} else {
					op = pickOp(rng, weights)
					if len(tenants) > 0 {
						ts := pickTenant(rng, tenants)
						tenant, prio = ts.name, ts.priority
					}
				}
				tcl := clients.get(tenant, prio)
				seq := -1
				if *unique {
					seq = i
				}
				var (
					status  int
					retryMS int64
					est     float64
					isEst   bool
					dt      float64
				)
				for attempt := 0; ; attempt++ {
					t0 := time.Now()
					status, retryMS, est, isEst = doOp(ctx, tcl, *graph, info, op, rng, *timeoutMS, seq)
					dt = time.Since(t0).Seconds() * 1000
					if status != 429 || !*retry429 || attempt >= 3 {
						break
					}
					// Honor the server's backoff hint before re-sending.
					retried.Add(1)
					if retryMS <= 0 {
						retryMS = 100
					}
					time.Sleep(time.Duration(retryMS) * time.Millisecond)
				}
				if status >= 500 {
					fiveXX.Add(1)
				}
				opHist[op].Observe(dt / 1000)
				if recorded != nil {
					recorded[i] = traceEntry{Op: opNames[op], Tenant: tenant, Priority: prio}
				}
				mu.Lock()
				latencies = append(latencies, dt)
				byOp[opNames[op]]++
				byStatus[strconv.Itoa(status)]++
				opLatSum[opNames[op]] += dt
				if tenant != "" || len(tenants) > 0 || trace != nil {
					label := tenant
					if label == "" {
						label = "default"
					}
					tt := tallies[label]
					if tt == nil {
						tt = newTenantTally()
						tallies[label] = tt
					}
					tt.requests++
					switch {
					case status == 200:
						tt.ok++
					case status == 429:
						tt.s429++
					}
					// Latency percentiles cover admitted requests only:
					// mixing sub-millisecond 429s in would make a tenant
					// look faster the harder it is being shed.
					if status == 200 {
						tt.hist.Observe(dt / 1000)
					}
				}
				if isEst && status == 200 && trackAccuracy {
					re := (est - float64(info.Butterflies)) / float64(info.Butterflies)
					if re < 0 {
						re = -re
					}
					relErrs = append(relErrs, re)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Float64s(latencies)
	var sum float64
	for _, l := range latencies {
		sum += l
	}
	pct := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	rep := report{
		Addr: base, Graph: *graph, Requests: *n, Concurrency: *c, Mix: *mix,
		ElapsedSec: elapsed.Seconds(),
		Throughput: float64(*n) / elapsed.Seconds(),
		LatencyMS: latencySummary{
			P50: pct(0.50), P90: pct(0.90), P99: pct(0.99),
			Max: pct(1.0), Mean: sum / float64(len(latencies)),
		},
		ByOp: byOp, ByStatus: byStatus,
		Server5xx:     int(fiveXX.Load()),
		OpLatencyMS:   map[string]float64{},
		OpPercentiles: map[string]latencyPct{},
		Retries429:    int(retried.Load()),
	}
	for op, total := range opLatSum {
		rep.OpLatencyMS[op] = total / float64(byOp[op])
	}
	for i, h := range opHist {
		if h.Count() == 0 {
			continue
		}
		rep.OpPercentiles[opNames[i]] = latencyPct{
			P50: h.Quantile(0.50) * 1000,
			P95: h.Quantile(0.95) * 1000,
			P99: h.Quantile(0.99) * 1000,
		}
	}
	rep.TenantMix = *tenantMix
	rep.Replayed = *replayPath
	if len(tallies) > 0 {
		totalOK := 0
		for _, tt := range tallies {
			totalOK += tt.ok
		}
		rep.Tenants = map[string]*tenantReport{}
		for name, tt := range tallies {
			tr := &tenantReport{
				Requests: tt.requests, OK: tt.ok, Status429: tt.s429,
				P50MS: tt.hist.Quantile(0.50) * 1000,
				P99MS: tt.hist.Quantile(0.99) * 1000,
			}
			if totalOK > 0 {
				tr.AdmitShare = float64(tt.ok) / float64(totalOK)
			}
			rep.Tenants[name] = tr
		}
	}
	if len(relErrs) > 0 {
		acc := &accuracySummary{Answers: len(relErrs), Exact: info.Butterflies}
		for _, re := range relErrs {
			acc.MeanRelErr += re
			if re > acc.MaxRelErr {
				acc.MaxRelErr = re
			}
		}
		acc.MeanRelErr /= float64(len(relErrs))
		rep.EstimateAccuracy = acc
	}

	fmt.Fprintf(out, "%d requests in %.2fs → %.1f req/s (workers=%d)\n",
		*n, rep.ElapsedSec, rep.Throughput, *c)
	fmt.Fprintf(out, "latency ms: p50=%.2f p90=%.2f p99=%.2f max=%.2f mean=%.2f\n",
		rep.LatencyMS.P50, rep.LatencyMS.P90, rep.LatencyMS.P99, rep.LatencyMS.Max, rep.LatencyMS.Mean)
	statuses := make([]string, 0, len(byStatus))
	for s := range byStatus {
		statuses = append(statuses, s)
	}
	sort.Strings(statuses)
	for _, s := range statuses {
		fmt.Fprintf(out, "  status %s: %d\n", s, byStatus[s])
	}
	ops := make([]string, 0, len(byOp))
	for o := range byOp {
		ops = append(ops, o)
	}
	sort.Strings(ops)
	for _, o := range ops {
		pct := rep.OpPercentiles[o]
		fmt.Fprintf(out, "  op %-8s %6d (mean %.2f ms, p50≈%.2f p95≈%.2f p99≈%.2f)\n",
			o, byOp[o], rep.OpLatencyMS[o], pct.P50, pct.P95, pct.P99)
	}
	if rep.Retries429 > 0 {
		fmt.Fprintf(out, "  retried %d shed request(s) after retry_after_ms\n", rep.Retries429)
	}
	if len(rep.Tenants) > 0 {
		names := make([]string, 0, len(rep.Tenants))
		for name := range rep.Tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintln(out, "per-tenant admission:")
		for _, name := range names {
			tr := rep.Tenants[name]
			fmt.Fprintf(out, "  %-12s %6d req, %6d ok (%.1f%% of admits), %5d x429, p50≈%.2f ms p99≈%.2f ms\n",
				name, tr.Requests, tr.OK, tr.AdmitShare*100, tr.Status429, tr.P50MS, tr.P99MS)
		}
	}
	if rep.EstimateAccuracy != nil {
		a := rep.EstimateAccuracy
		fmt.Fprintf(out, "  estimate accuracy: %d answers vs exact %d, mean rel err %.2f%%, max %.2f%%\n",
			a.Answers, a.Exact, a.MeanRelErr*100, a.MaxRelErr*100)
	}
	if recorded != nil {
		if err := writeTrace(*recordPath, recorded); err != nil {
			return fmt.Errorf("write -record trace: %w", err)
		}
		fmt.Fprintf(out, "recorded %d requests to %s\n", len(recorded), *recordPath)
	}

	if *jsonOut != "" {
		var w io.Writer = out
		var f *os.File
		if *jsonOut != "-" {
			f, err = os.Create(*jsonOut)
			if err != nil {
				return err
			}
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
		if f != nil {
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote report to %s\n", *jsonOut)
		}
	}

	if rep.Server5xx > 0 && !*allow5xx {
		return fmt.Errorf("%d requests answered 5xx", rep.Server5xx)
	}
	return nil
}

// doOp fires one request and returns its HTTP status: 200 on success,
// the APIError status on an HTTP-level failure, and 0 for transport
// errors (connection refused, timeouts below HTTP) — reported as
// their own bucket in the status table. The second return is the
// server's retry_after_ms backoff hint, nonzero only on 429; the last
// two carry the answer of a successful estimate op for the accuracy
// report.
//
// seq ≥ 0 (-unique) varies the cacheable request parameters per
// request so every op misses the result cache — the load then
// exercises admission and the kernels instead of the LRU. Counts keep
// their shape regardless: the family's count answers are equivalent,
// so identical concurrent counts coalesce by design.
func doOp(ctx context.Context, cl *client.Client, graph string, info serveapi.GraphInfo, op opKind, rng *rand.Rand, timeoutMS, seq int) (int, int64, float64, bool) {
	var err error
	top := 20
	estSeed := rng.Int63n(16)
	peelK := int64(1 + rng.Intn(4))
	if seq >= 0 {
		top = 1 + seq%997
		estSeed = int64(seq)
		peelK = int64(1 + seq%13)
	}
	switch op {
	case opCount:
		_, err = cl.Count(ctx, graph, serveapi.CountRequest{
			Invariant:     rng.Intn(9),
			Threads:       []int{1, -1}[rng.Intn(2)],
			TimeoutMillis: timeoutMS,
		})
	case opVertex:
		_, err = cl.VertexCounts(ctx, graph, serveapi.VertexCountsRequest{
			Side: []string{"v1", "v2"}[rng.Intn(2)], Top: top, TimeoutMillis: timeoutMS,
		})
	case opEdges:
		_, err = cl.EdgeSupports(ctx, graph, serveapi.EdgeSupportsRequest{Top: top, TimeoutMillis: timeoutMS})
	case opEstimate:
		var est serveapi.EstimateResponse
		est, err = cl.Estimate(ctx, graph, serveapi.EstimateRequest{
			Strategy: "edges", Samples: 500, Seed: estSeed, TimeoutMillis: timeoutMS,
		})
		if err == nil {
			return 200, 0, est.Estimate, true
		}
	case opPeel:
		_, err = cl.Peel(ctx, graph, serveapi.PeelRequest{
			Mode: "tip", K: peelK, Side: "v1", Threads: -1, TimeoutMillis: timeoutMS,
		})
	case opMutate:
		ins := make([][2]int, 2)
		del := make([][2]int, 1)
		for i := range ins {
			ins[i] = [2]int{rng.Intn(info.NumV1), rng.Intn(info.NumV2)}
		}
		del[0] = ins[0] // delete one of the just-inserted edges
		_, err = cl.Mutate(ctx, graph, serveapi.MutateRequest{Inserts: ins, Deletes: del})
	}
	if err == nil {
		return 200, 0, 0, false
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status, apiErr.RetryAfterMS, 0, false
	}
	return 0, 0, 0, false // transport failure
}

// streamIngest pushes the synthetic dataset through the streaming
// ingest lifecycle: open, NDJSON append batches, a mid-load estimate
// (checked for a well-formed CI envelope), seal, and an exact-count
// check of the sealed graph against a local offline count of the same
// edges.
func streamIngest(ctx context.Context, cl *client.Client, out io.Writer, graph, dataset string, scale, batch, reservoir int, seed int64) error {
	g, err := butterfly.GeneratePaperDataset(dataset, scale)
	if err != nil {
		return err
	}
	edges := g.Edges()
	if batch <= 0 {
		batch = 1000
	}
	open, err := cl.IngestOpen(ctx, serveapi.IngestRequest{
		Name: graph, M: g.NumV1(), N: g.NumV2(),
		Reservoir: reservoir, Seed: seed, Replace: true,
	})
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	fmt.Fprintf(out, "ingesting %s: %dx%d, %d edges in batches of %d (reservoir %d)\n",
		graph, g.NumV1(), g.NumV2(), len(edges), batch, open.ReservoirCap)

	half := len(edges) / 2
	for i := 0; i < len(edges); i += batch {
		end := min(i+batch, len(edges))
		if _, err := cl.IngestAppend(ctx, graph, edges[i:end]); err != nil {
			return fmt.Errorf("append [%d:%d]: %w", i, end, err)
		}
		if i < half && end >= half {
			// Mid-load: the estimate endpoint must answer from the live
			// reservoir with a well-formed CI envelope.
			est, err := cl.Estimate(ctx, graph, serveapi.EstimateRequest{})
			if err != nil {
				return fmt.Errorf("mid-load estimate: %w", err)
			}
			if est.State != "loading" || est.Strategy != "reservoir" ||
				est.Estimate < 0 || est.StdErr < 0 || est.CI95 < 1.9*est.StdErr {
				return fmt.Errorf("malformed mid-load estimate envelope: %+v", est)
			}
			fmt.Fprintf(out, "  mid-load estimate ≈ %.0f ± %.0f (95%% CI, %d edges seen)\n",
				est.Estimate, est.CI95, est.EdgesSeen)
		}
	}
	sealed, err := cl.IngestSeal(ctx, graph)
	if err != nil {
		return fmt.Errorf("seal: %w", err)
	}
	exact := g.Count()
	if sealed.Butterflies != exact {
		return fmt.Errorf("sealed count %d != offline count %d", sealed.Butterflies, exact)
	}
	fmt.Fprintf(out, "sealed %s v%d: %d butterflies (matches offline count)\n",
		sealed.Name, sealed.Version, sealed.Butterflies)
	return nil
}

func pickOp(rng *rand.Rand, weights [numOps]int) opKind {
	total := 0
	for _, w := range weights {
		total += w
	}
	r := rng.Intn(total)
	for op, w := range weights {
		if r < w {
			return opKind(op)
		}
		r -= w
	}
	return opCount
}

func parseMix(s string) ([numOps]int, error) {
	var weights [numOps]int
	any := false
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return weights, fmt.Errorf("bad -mix entry %q (want op=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return weights, fmt.Errorf("bad -mix weight %q", part)
		}
		found := false
		for i, n := range opNames {
			if n == name {
				weights[i] = w
				found = true
				break
			}
		}
		if !found {
			return weights, fmt.Errorf("unknown -mix op %q (want %s)", name, strings.Join(opNames[:], "|"))
		}
		if w > 0 {
			any = true
		}
	}
	if !any {
		return weights, fmt.Errorf("-mix has no positive weights")
	}
	return weights, nil
}
