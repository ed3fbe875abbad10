package serve

import (
	"context"
	"fmt"
	"io"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"butterfly"
	"butterfly/internal/obsv"
	"butterfly/serveapi"
)

// badRequestError marks validation failures that should answer 400.
type badRequestError struct{ msg string }

func (e badRequestError) Error() string { return e.msg }

func badReqf(format string, args ...any) error {
	return badRequestError{fmt.Sprintf(format, args...)}
}

// parseSide maps "" to V1 and otherwise accepts butterfly.ParseSide's
// spellings.
func parseSide(s string) (butterfly.Side, error) {
	if s == "" {
		return butterfly.V1, nil
	}
	side, err := butterfly.ParseSide(s)
	if err != nil {
		return 0, badReqf("unknown side %q (want v1|v2)", s)
	}
	return side, nil
}

// countOptions validates a CountRequest into CountOptions.
func countOptions(req *serveapi.CountRequest) (butterfly.CountOptions, error) {
	var opts butterfly.CountOptions
	var err error
	if req.Algorithm != "" {
		if opts.Algorithm, err = butterfly.ParseAlgorithm(req.Algorithm); err != nil {
			return opts, badReqf("unknown algorithm %q", req.Algorithm)
		}
	}
	opts.Invariant = butterfly.Invariant(req.Invariant)
	if !opts.Invariant.Valid() {
		return opts, badReqf("invariant must be 0-8, got %d", req.Invariant)
	}
	if opts.Algorithm != butterfly.AlgorithmFamily && opts.Invariant != butterfly.InvariantAuto {
		return opts, badReqf("invariant is only meaningful with the family algorithm")
	}
	// hub and order name choices the count makes for itself: the
	// hybrid kernel's cost model and the degree-ordered relayout. Their
	// spellings are checked, so a typo answers 400, and then ignored.
	if req.Hub != "" && !slices.Contains([]string{"auto", "never", "always"}, req.Hub) {
		return opts, badReqf("unknown hub policy %q (want auto|never|always)", req.Hub)
	}
	if req.Order != "" && !slices.Contains([]string{"natural", "degree-asc", "degree-desc"}, req.Order) {
		return opts, badReqf("unknown order %q (want natural|degree-asc|degree-desc)", req.Order)
	}
	if req.Agg != "" {
		if opts.Agg, err = butterfly.ParseAggPolicy(req.Agg); err != nil {
			return opts, badReqf("unknown aggregation mode %q (want auto|sort|hash|hist|batch)", req.Agg)
		}
		if opts.Agg != butterfly.AggAuto && opts.Algorithm != butterfly.AlgorithmFamily {
			return opts, badReqf("agg is only meaningful with the family algorithm")
		}
	}
	if req.BlockSize < 0 {
		return opts, badReqf("block must be ≥ 0, got %d", req.BlockSize)
	}
	opts.BlockSize = req.BlockSize
	opts.Threads = req.Threads
	return opts, nil
}

// Cache keys. A key captures everything that can change the response
// body and nothing else, and it is built from parsed values, so that
// equivalent spellings of one request share one entry. The exact count
// is invariant across all algorithms, invariants and thread counts —
// that equivalence is the paper's core result and is what makes the
// shared count key sound: a count served from cache
// is identical to a count computed by any family member. Performance
// knobs therefore never fragment the cache — with one exception: the
// response reports the wedge-aggregation mode that ran
// (CountResponse.Agg), so requests naming different modes produce
// different bodies and must key separately (keyCountFor). The default
// "auto" spelling shares one entry; which concrete mode auto resolves
// to is deterministic per graph, so that entry is stable too.
const keyCount = "count|agg=auto"

// keyCountFor returns the count-result cache key for parsed options:
// keyCount for a family count with the default aggregation, a
// mode-suffixed variant for explicit modes, and a shared baseline key
// for the non-family algorithms (whose responses carry no agg field,
// so they cannot share a body with family counts — but do share one
// with each other).
func keyCountFor(opts butterfly.CountOptions) string {
	switch {
	case opts.Algorithm != butterfly.AlgorithmFamily:
		return "count|baseline"
	case opts.Agg == butterfly.AggAuto:
		return keyCount
	}
	return "count|agg=" + opts.Agg.String()
}

// parseTop resolves a request's top: 0 asks for the default 100, and
// every negative value asks for all, which is kept as -1 so that the
// spellings of "all" share one cache entry.
func parseTop(top int) int {
	switch {
	case top == 0:
		return 100
	case top < 0:
		return -1
	}
	return top
}

// A Query is one query request, decoded and validated by its kind's
// parse function. It holds everything serveQuery needs, so nothing
// after parsing reads the body again, and a malformed request answers
// 400 before it spends a quota token or an execution slot.
type Query struct {
	tenant, priority string // the body's tenancy fields (applyTenant)
	timeoutMS        int
	// key is the cache key of the answer on one graph version.
	key string
	// degrade answers a shed request with degradedEstimate instead of
	// 429 (?degrade=estimate on /count).
	degrade bool
	// live answers a graph still streaming through /v1/ingest from its
	// reservoir (estimate only).
	live bool
	// run is the kernel over the parsed options.
	run func(s *Server, ctx context.Context, sl *slot, snap *Snapshot, ksp *obsv.Span) (any, error)
}

// Priority is the body's priority field, which only applyTenant
// checks (see CheckPriority).
func (q Query) Priority() string { return q.priority }

// parseFunc is the shape of the five parse functions: the request body
// and the URL query parameters in, a Query or a badRequestError out.
type parseFunc func(body io.Reader, params url.Values) (Query, error)

// ParseCount parses a count request. ?degrade=estimate opts into the
// approximate tier under overload: a shed request answers 200 with a
// sampling estimate (Degraded set, X-Degraded header) instead of a
// bare 429.
func ParseCount(body io.Reader, params url.Values) (Query, error) {
	var req serveapi.CountRequest
	if err := decodeBody(body, &req); err != nil {
		return Query{}, err
	}
	opts, err := countOptions(&req)
	if err != nil {
		return Query{}, err
	}
	q := Query{tenant: req.Tenant, priority: req.Priority, timeoutMS: req.TimeoutMillis, key: keyCountFor(opts)}
	switch d := params.Get("degrade"); d {
	case "":
	case "estimate":
		q.degrade = true
	default:
		return Query{}, badReqf("unknown degrade mode %q (want estimate)", d)
	}
	q.run = func(s *Server, ctx context.Context, _ *slot, snap *Snapshot, ksp *obsv.Span) (any, error) {
		return s.execCount(ctx, snap, opts, ksp)
	}
	return q, nil
}

func parseVertexCounts(body io.Reader, _ url.Values) (Query, error) {
	var req serveapi.VertexCountsRequest
	if err := decodeBody(body, &req); err != nil {
		return Query{}, err
	}
	side, err := parseSide(req.Side)
	if err != nil {
		return Query{}, err
	}
	top := parseTop(req.Top)
	return Query{
		tenant: req.Tenant, priority: req.Priority, timeoutMS: req.TimeoutMillis,
		key: fmt.Sprintf("vertex|%v|top=%d", side, top),
		run: func(s *Server, ctx context.Context, sl *slot, snap *Snapshot, _ *obsv.Span) (any, error) {
			return s.execVertexCounts(ctx, sl, snap, side, top)
		},
	}, nil
}

func parseEdgeSupports(body io.Reader, _ url.Values) (Query, error) {
	var req serveapi.EdgeSupportsRequest
	if err := decodeBody(body, &req); err != nil {
		return Query{}, err
	}
	top := parseTop(req.Top)
	return Query{
		tenant: req.Tenant, priority: req.Priority, timeoutMS: req.TimeoutMillis,
		key: fmt.Sprintf("edge-supports|top=%d", top),
		run: func(s *Server, ctx context.Context, sl *slot, snap *Snapshot, _ *obsv.Span) (any, error) {
			return s.execEdgeSupports(ctx, sl, snap, top)
		},
	}, nil
}

// ParseEstimate parses an estimate request. Each estimator reads only
// its own options — sparsify reads P, the samplers read Samples,
// TargetRelErr and MaxSamples — so the parsed options keep only those,
// and the cache key does not split on options that change nothing.
func ParseEstimate(body io.Reader, _ url.Values) (Query, error) {
	var req serveapi.EstimateRequest
	if err := decodeBody(body, &req); err != nil {
		return Query{}, err
	}
	opts := butterfly.EstimateOptions{Strategy: butterfly.SampleEdges, Seed: req.Seed}
	if req.Strategy != "" && req.Strategy != "auto" {
		// Edge sampling, the default, is usually the lowest-variance
		// choice on skewed graphs, and every sample is O(deg).
		var err error
		if opts.Strategy, err = butterfly.ParseEstimateStrategy(req.Strategy); err != nil {
			return Query{}, badReqf("unknown strategy %q (want auto|vertices|edges|sparsify)", req.Strategy)
		}
	}
	switch {
	case req.Samples < 0:
		return Query{}, badReqf("samples must be ≥ 0, got %d", req.Samples)
	case req.TargetRelErr < 0:
		return Query{}, badReqf("target_rel_err must be ≥ 0, got %g", req.TargetRelErr)
	case req.MaxSamples < 0:
		return Query{}, badReqf("max_samples must be ≥ 0, got %d", req.MaxSamples)
	}
	if opts.Strategy == butterfly.SampleSparsify {
		if req.P <= 0 || req.P > 1 {
			return Query{}, badReqf("p must be in (0,1] for sparsify, got %g", req.P)
		}
		opts.P = req.P
	} else {
		opts.Samples, opts.TargetRelErr, opts.MaxSamples = req.Samples, req.TargetRelErr, req.MaxSamples
	}
	return Query{
		tenant: req.Tenant, priority: req.Priority, timeoutMS: req.TimeoutMillis, live: true,
		key: fmt.Sprintf("estimate|%v|samples=%d|p=%g|seed=%d|tre=%g|max=%d",
			opts.Strategy, opts.Samples, opts.P, opts.Seed, opts.TargetRelErr, opts.MaxSamples),
		run: func(s *Server, ctx context.Context, sl *slot, snap *Snapshot, _ *obsv.Span) (any, error) {
			return s.execEstimate(ctx, sl, snap, opts)
		},
	}, nil
}

// parsePeel parses a peel request. The key includes the engine: the
// subgraph summary is identical across engines (confluence), but the
// response also reports the engine and its round count, which
// legitimately differ. A k-wing peel has no side.
func parsePeel(body io.Reader, _ url.Values) (Query, error) {
	var req serveapi.PeelRequest
	if err := decodeBody(body, &req); err != nil {
		return Query{}, err
	}
	side, err := parseSide(req.Side)
	if err != nil {
		return Query{}, err
	}
	if req.Mode != "tip" && req.Mode != "wing" {
		return Query{}, badReqf("unknown mode %q (want tip|wing)", req.Mode)
	}
	if req.K < 0 {
		return Query{}, badReqf("k must be ≥ 0, got %d", req.K)
	}
	engine := butterfly.PeelDelta
	if req.Engine != "" {
		if engine, err = butterfly.ParsePeelEngine(req.Engine); err != nil {
			return Query{}, badReqf("unknown engine %q (want delta|recount)", req.Engine)
		}
	}
	key := fmt.Sprintf("peel|tip|k=%d|%v|%v", req.K, side, engine)
	if req.Mode == "wing" {
		key = fmt.Sprintf("peel|wing|k=%d|%v", req.K, engine)
	}
	opts := butterfly.PeelOptions{Engine: engine, Threads: req.Threads}
	return Query{
		tenant: req.Tenant, priority: req.Priority, timeoutMS: req.TimeoutMillis, key: key,
		run: func(s *Server, ctx context.Context, sl *slot, snap *Snapshot, ksp *obsv.Span) (any, error) {
			return s.execPeel(ctx, sl, snap, req.Mode, req.K, side, opts, ksp)
		},
	}, nil
}

// execCount runs an exact count on the snapshot with true cooperative
// cancellation (the ctx is threaded into the core counting loops).
// The kernel span, when present, receives the counting core's named
// sub-stages ("core.relayout", "core.count", …) as children.
func (s *Server) execCount(ctx context.Context, snap *Snapshot, opts butterfly.CountOptions, ksp *obsv.Span) (*serveapi.CountResponse, error) {
	opts.Arena = s.arena
	opts.Stage = ksp.Hook()
	c, err := snap.Graph.CountWithContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	resp := &serveapi.CountResponse{
		ResultMeta:  serveapi.ResultMeta{Graph: snap.Name, Version: snap.Version},
		Butterflies: c,
	}
	if opts.Algorithm == butterfly.AlgorithmFamily {
		resp.Agg = snap.Graph.ResolvedAgg(opts).String()
	}
	return resp, nil
}

// execVertexCounts computes per-vertex butterfly counts and keeps the
// top-K (all when top < 0). Runs under runAbandon (no checkpoints
// inside the vector kernel yet).
func (s *Server) execVertexCounts(ctx context.Context, sl *slot, snap *Snapshot, side butterfly.Side, top int) (*serveapi.VertexCountsResponse, error) {
	counts, err := runAbandon(ctx, sl, func() ([]int64, error) {
		return snap.Graph.VertexButterflies(side)
	})
	if err != nil {
		return nil, err
	}
	var total int64
	idx := make([]int, len(counts))
	for i, c := range counts {
		total += c
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if counts[idx[a]] != counts[idx[b]] {
			return counts[idx[a]] > counts[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if top > 0 && top < len(idx) {
		idx = idx[:top]
	}
	vs := make([]serveapi.VertexCount, len(idx))
	for i, v := range idx {
		vs[i] = serveapi.VertexCount{Vertex: v, Count: counts[v]}
	}
	return &serveapi.VertexCountsResponse{
		ResultMeta: serveapi.ResultMeta{Graph: snap.Name, Version: snap.Version},
		Side:       strings.ToLower(side.String()), Total: total, Vertices: vs,
	}, nil
}

// execEdgeSupports computes per-edge butterfly supports, top-K by
// support.
func (s *Server) execEdgeSupports(ctx context.Context, sl *slot, snap *Snapshot, top int) (*serveapi.EdgeSupportsResponse, error) {
	supports, err := runAbandon(ctx, sl, func() ([]butterfly.EdgeCount, error) {
		return snap.Graph.EdgeSupports(), nil
	})
	if err != nil {
		return nil, err
	}
	var total int64
	for _, e := range supports {
		total += e.Count
	}
	sort.Slice(supports, func(a, b int) bool {
		if supports[a].Count != supports[b].Count {
			return supports[a].Count > supports[b].Count
		}
		if supports[a].U != supports[b].U {
			return supports[a].U < supports[b].U
		}
		return supports[a].V < supports[b].V
	})
	if top > 0 && top < len(supports) {
		supports = supports[:top]
	}
	es := make([]serveapi.EdgeSupport, len(supports))
	for i, e := range supports {
		es[i] = serveapi.EdgeSupport{U: e.U, V: e.V, Count: e.Count}
	}
	return &serveapi.EdgeSupportsResponse{
		ResultMeta: serveapi.ResultMeta{Graph: snap.Name, Version: snap.Version},
		Total:      total, Edges: es,
	}, nil
}

// execEstimate runs a sampling estimator (deterministic given the
// seed, hence cacheable). Samples == 0 with a sampling strategy means
// adaptive sizing: draws accumulate until the 95% CI half-width is
// below the target relative error or MaxSamples is hit.
func (s *Server) execEstimate(ctx context.Context, sl *slot, snap *Snapshot, opts butterfly.EstimateOptions) (*serveapi.EstimateResponse, error) {
	res, err := runAbandon(ctx, sl, func() (butterfly.EstimateResult, error) {
		return snap.Graph.EstimateWithCI(opts)
	})
	if err != nil {
		return nil, err
	}
	s.obs.estimates.With("sample").Inc()
	return &serveapi.EstimateResponse{
		ResultMeta: serveapi.ResultMeta{Graph: snap.Name, Version: snap.Version},
		Strategy:   opts.Strategy.String(),
		Estimate:   res.Estimate,
		StdErr:     res.StdErr,
		CI95:       res.CI95,
		Samples:    res.Samples,
	}, nil
}

// degradedEstimate is the admission limiter's degrade-to-estimate
// fallback (?degrade=estimate on /count): a small fixed-budget edge
// sample, deliberately bounded so it stays cheap enough to run outside
// an execution slot. The seed is fixed — under sustained overload
// repeated degrades return a stable answer instead of jittering.
func (s *Server) degradedEstimate(snap *Snapshot) (any, error) {
	start := time.Now()
	res, err := snap.Graph.EstimateWithCI(butterfly.EstimateOptions{
		Strategy: butterfly.SampleEdges,
		Samples:  degradeSamples,
		Seed:     1,
	})
	if err != nil {
		return nil, err
	}
	return &serveapi.EstimateResponse{
		ResultMeta: serveapi.ResultMeta{
			Graph: snap.Name, Version: snap.Version,
			Cache: "bypass", Degraded: true,
		},
		Strategy:  "edges",
		Estimate:  res.Estimate,
		StdErr:    res.StdErr,
		CI95:      res.CI95,
		Samples:   res.Samples,
		ElapsedMS: time.Since(start).Milliseconds(),
	}, nil
}

// degradeSamples is the fixed edge-sample budget of the degrade path.
const degradeSamples = 256

// execPeel runs a k-tip or k-wing peel and summarizes the surviving
// subgraph. The kernel span, when present, receives the peeling
// engine's sub-stages ("peel.seed", "peel.round[i]") as children; on a
// k-wing peel, "peel.seed" covers the bloom index build.
func (s *Server) execPeel(ctx context.Context, sl *slot, snap *Snapshot, mode string, k int64, side butterfly.Side, opts butterfly.PeelOptions, ksp *obsv.Span) (*serveapi.PeelResponse, error) {
	opts.Stage = ksp.Hook()
	type peeled struct {
		sub   *butterfly.Graph
		stats butterfly.PeelStats
	}
	r, err := runAbandon(ctx, sl, func() (peeled, error) {
		if mode == "wing" {
			sub, st, err := snap.Graph.KWingWith(k, opts)
			return peeled{sub, st}, err
		}
		sub, st, err := snap.Graph.KTipWith(k, side, opts)
		return peeled{sub, st}, err
	})
	if err != nil {
		return nil, err
	}
	return &serveapi.PeelResponse{
		ResultMeta: serveapi.ResultMeta{Graph: snap.Name, Version: snap.Version},
		Mode:       mode, K: k,
		Engine: opts.Engine.String(), Rounds: r.stats.Rounds,
		EdgesRemaining: r.sub.NumEdges(), Butterflies: r.sub.Count(),
	}, nil
}

// slot is a claimed execution slot of the admission limiter whose
// release can be handed over to a background goroutine when a
// computation is abandoned on deadline. States: held (by the request
// goroutine) → transferred (to the abandoned computation) → released.
// Exactly one transition releases the limiter.
type slot struct {
	lim   *limiter
	state atomic.Int32
}

const (
	slotHeld int32 = iota
	slotTransferred
	slotReleased
)

// release frees the slot if the request goroutine still owns it; the
// handler defers it so every early-exit path is covered.
func (sl *slot) release() {
	if sl != nil && sl.state.CompareAndSwap(slotHeld, slotReleased) {
		sl.lim.release()
	}
}

// transfer hands ownership to a background goroutine: the handler's
// deferred release becomes a no-op and releaseOwned frees the slot
// when the computation actually finishes. This keeps the limiter's
// accounting honest — an abandoned count still occupies CPU, so it
// must keep occupying an execution slot until it is done.
func (sl *slot) transfer() { sl.state.CompareAndSwap(slotHeld, slotTransferred) }

// releaseOwned frees the slot from the computation goroutine,
// whichever side currently owns it.
func (sl *slot) releaseOwned() {
	if sl.state.CompareAndSwap(slotTransferred, slotReleased) ||
		sl.state.CompareAndSwap(slotHeld, slotReleased) {
		sl.lim.release()
	}
}

// runAbandon runs f in a helper goroutine and returns its result, or
// returns promptly with ctx.Err() on cancellation. On cancellation
// the goroutine finishes in the background, discards its result, and
// releases the execution slot only when it is truly done — used for
// the query kernels that do not yet have cancellation checkpoints of
// their own. With a non-cancellable ctx, f runs inline and slot
// handling is left entirely to the caller's defer.
func runAbandon[T any](ctx context.Context, sl *slot, f func() (T, error)) (T, error) {
	if ctx.Done() == nil {
		return f()
	}
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := f()
		sl.releaseOwned()
		ch <- result{v, err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-ctx.Done():
		sl.transfer()
		return zero, ctx.Err()
	}
}
