package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"butterfly/internal/flight"
	"butterfly/internal/obsv"
	"butterfly/internal/serve"
	"butterfly/serveapi"
)

// Config tunes a Router. Shards is the only required field.
type Config struct {
	// Shards are the base URLs of the shard daemons, e.g.
	// "http://127.0.0.1:9001". At least one is required.
	Shards []string
	// Replicas is the placement width of unpartitioned graphs: writes
	// go to the first Replicas ring successors, reads rotate across
	// them (with read-your-writes via version floors). ≤ 1 disables
	// replication.
	Replicas int
	// VNodes is the consistent-hash virtual-node count per shard;
	// ≤ 0 means DefaultVNodes.
	VNodes int
	// Retries is how many times a request to one shard is retried on a
	// network error before the router moves to the next candidate (or
	// gives up); ≤ 0 means 2.
	Retries int
	// RetryBackoff is the base delay between those retries, growing
	// linearly per attempt; ≤ 0 means 25ms.
	RetryBackoff time.Duration
	// PartialTimeout is the per-shard deadline of a scatter-gather
	// partial fetch; a partition that misses it is treated as down and
	// the count degrades to the partition-sampling estimate. ≤ 0 means
	// 15s.
	PartialTimeout time.Duration
	// MaxIdleConnsPerHost sizes the keep-alive pool to each shard on
	// the default client. Scatter-gather fans out to every shard at
	// once, so the net/http default of 2 idle connections per host
	// forces most of the fan-out through fresh TCP handshakes; ≤ 0
	// means 64. Ignored when Client is set.
	MaxIdleConnsPerHost int
	// Client is the HTTP client used to talk to shards; nil gets a
	// client with a 2-minute overall timeout over a keep-alive-tuned
	// transport (see MaxIdleConnsPerHost).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.Retries <= 0 {
		c.Retries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.PartialTimeout <= 0 {
		c.PartialTimeout = 15 * time.Second
	}
	if c.MaxIdleConnsPerHost <= 0 {
		c.MaxIdleConnsPerHost = 64
	}
	if c.Client == nil {
		c.Client = &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxIdleConns:        4 * c.MaxIdleConnsPerHost,
				MaxIdleConnsPerHost: c.MaxIdleConnsPerHost,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	return c
}

// graphMeta is what the router remembers about one logical graph:
// whether it is partitioned, the version floor its reads must observe
// (read-your-writes), and a rotation cursor for replica reads.
type graphMeta struct {
	partitions int // ≥ 2 for partitioned graphs
	v1, v2     int // a partitioned graph's dimensions, every partition's too
	floor      atomic.Uint64
	rr         atomic.Uint32

	// pc pins partition partials and the merged count between
	// mutations (partitioned graphs only; see partialcache.go).
	pc partialCache
}

// Router is the bfserved cluster front door: an http.Handler serving
// the /v1 surface by proxying to shard daemons placed on a
// consistent-hash ring, with scatter-gather reduction for partitioned
// graphs. Stateless apart from routing metadata — restart one, point
// it at the same shards, call Refresh, and it serves identically.
type Router struct {
	cfg Config
	hc  *http.Client
	mux *http.ServeMux

	mu     sync.RWMutex
	ring   *Ring
	graphs map[string]*graphMeta

	// flights coalesces concurrent partitioned gathers per
	// (graph, cache generation).
	flights flight.Group[gatherOutcome]

	draining atomic.Bool

	reg           *obsv.Registry
	reqs          *obsv.CounterVec // route, code
	shardReqs     *obsv.CounterVec // shard
	shardSecs     *obsv.HistogramVec
	shardErrs     *obsv.CounterVec // shard, kind
	degraded      *obsv.CounterVec
	rebalMoves    *obsv.CounterVec
	partialHits   *obsv.CounterVec // kind: merged | delta | noop
	partialMisses *obsv.CounterVec // reason: cold | full
	coalesced     *obsv.CounterVec
	mergeSecs     *obsv.HistogramVec // kind: incremental | full
}

// New builds a Router over cfg.Shards. It does not touch the network;
// call Refresh to discover graphs already resident on the shards
// (e.g. after a router restart).
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: at least one shard is required")
	}
	for _, s := range cfg.Shards {
		u, err := url.Parse(s)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: shard %q is not an absolute URL", s)
		}
	}
	rt := &Router{
		cfg:    cfg,
		hc:     cfg.Client,
		ring:   NewRing(cfg.Shards, cfg.VNodes),
		graphs: make(map[string]*graphMeta),
		reg:    obsv.NewRegistry(),
	}
	rt.reqs = rt.reg.Counter("bfrouter_requests_total", "Requests served by the router, by route and status code.", "route", "code")
	rt.shardReqs = rt.reg.Counter("bfrouter_shard_requests_total", "Requests forwarded to each shard.", "shard")
	rt.shardSecs = rt.reg.Histogram("bfrouter_shard_seconds", "Latency of forwarded shard requests.", obsv.LatencyBuckets, "shard")
	rt.shardErrs = rt.reg.Counter("bfrouter_shard_errors_total", "Forwarding failures by shard and kind.", "shard", "kind")
	rt.degraded = rt.reg.Counter("bfrouter_degraded_total", "Scatter-gather answers degraded to the partition-sampling estimate.")
	rt.rebalMoves = rt.reg.Counter("bfrouter_rebalance_moves_total", "Graphs relocated by /admin/rebalance.")
	rt.partialHits = rt.reg.Counter("bfrouter_partial_cache_hits_total", "Partition partials served from router state: merged = no shard traffic at all, delta = changed keys only, noop = unchanged-partition revalidation.", "kind")
	rt.partialMisses = rt.reg.Counter("bfrouter_partial_cache_misses_total", "Full partial-map transfers: cold = nothing pinned, full = shard could not serve a delta (history evicted or epoch changed).", "reason")
	rt.coalesced = rt.reg.Counter("bfrouter_coalesced_total", "Partitioned count/estimate requests that joined another request's in-flight gather instead of starting their own.")
	rt.mergeSecs = rt.reg.Histogram("bfrouter_merge_seconds", "Time to reduce a partitioned gather to its count: incremental = pinned count adjusted by the delta keys, full = k-way merge of whole partition maps (full frames, degraded live subsets, debug scatters).", obsv.LatencyBuckets, "kind")
	rt.routes()
	return rt, nil
}

// Drain flips healthz to 503 "draining" for load-balancer removal.
func (rt *Router) Drain() { rt.draining.Store(true) }

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// currentRing returns the active membership view.
func (rt *Router) currentRing() *Ring {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring
}

// metaOf returns the routing metadata of a logical graph, or nil if
// the router has never seen it (unknown graphs route as unpartitioned
// with no floor).
func (rt *Router) metaOf(name string) *graphMeta {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.graphs[name]
}

// ensureMeta returns (creating if needed) the metadata of a graph.
// partitions < 2 records an unpartitioned graph; partitions ≥ 2 records
// a partitioned one of v1 × v2 vertices.
func (rt *Router) ensureMeta(name string, partitions, v1, v2 int) *graphMeta {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ensureMetaLocked(name, partitions, v1, v2)
}

// ensureMetaLocked is ensureMeta for a caller holding rt.mu.
func (rt *Router) ensureMetaLocked(name string, partitions, v1, v2 int) *graphMeta {
	m := rt.graphs[name]
	if m == nil {
		m = &graphMeta{}
		rt.graphs[name] = m
	}
	if partitions >= 2 {
		m.partitions, m.v1, m.v2 = partitions, v1, v2
	}
	return m
}

func (rt *Router) forgetMeta(name string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	delete(rt.graphs, name)
}

// routes wires the router's /v1 surface. The router is /v1-only: it
// postdates the legacy alias and there is no pre-/v1 cluster client
// to stay compatible with. /healthz and /metrics stay unversioned as
// infrastructure, matching single-node bfserved.
func (rt *Router) routes() {
	rt.mux = http.NewServeMux()
	eps := []struct {
		pattern, route string
		h              http.HandlerFunc
	}{
		{"GET /healthz", "healthz", rt.handleHealthz},
		{"GET /v1/healthz", "healthz", rt.handleHealthz},
		{"GET /v1/graphs", "graphs.list", rt.handleList},
		{"POST /v1/graphs", "graphs.register", rt.handleRegister},
		{"GET /v1/graphs/{name}", "graphs.info", rt.handleInfo},
		{"DELETE /v1/graphs/{name}", "graphs.drop", rt.handleDrop},
		{"POST /v1/graphs/{name}/count", "count", rt.handleGather(serve.ParseCount, "/count", false)},
		{"POST /v1/graphs/{name}/estimate", "estimate", rt.handleGather(serve.ParseEstimate, "/estimate", true)},
		{"POST /v1/graphs/{name}/mutate", "mutate", rt.handleMutate},
		{"POST /v1/graphs/{name}/vertex-counts", "vertex-counts", rt.handleReadProxy("/vertex-counts")},
		{"POST /v1/graphs/{name}/edge-supports", "edge-supports", rt.handleReadProxy("/edge-supports")},
		{"POST /v1/graphs/{name}/peel", "peel", rt.handleReadProxy("/peel")},
		{"POST /v1/ingest", "ingest.open", rt.handleIngestOpen},
		{"GET /v1/ingest/{name}", "ingest.status", rt.handleIngest("")},
		{"POST /v1/ingest/{name}/edges", "ingest.append", rt.handleIngest("/edges")},
		{"POST /v1/ingest/{name}/seal", "ingest.seal", rt.handleIngest("/seal")},
		{"DELETE /v1/ingest/{name}", "ingest.abort", rt.handleIngest("")},
		{"POST /v1/admin/checkpoint", "admin.checkpoint", rt.handleCheckpoint},
		{"POST /admin/checkpoint", "admin.checkpoint", rt.handleCheckpoint},
		{"POST /v1/admin/rebalance", "admin.rebalance", rt.handleRebalance},
		{"POST /admin/rebalance", "admin.rebalance", rt.handleRebalance},
	}
	for _, ep := range eps {
		rt.mux.HandleFunc(ep.pattern, rt.instrument(ep.route, ep.h))
	}
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
}

// instrument counts requests per route and status code.
func (rt *Router) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		rt.reqs.With(route, strconv.Itoa(sw.code)).Inc()
	}
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// writeErr emits the /v1 error envelope.
func (rt *Router) writeErr(w http.ResponseWriter, status int, code, msg string, retryMS int64) {
	if retryMS > 0 {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(serveapi.ErrorEnvelope{
		Error: serveapi.ErrorDetail{Code: code, Message: msg, RetryAfterMS: retryMS},
	})
}

func (rt *Router) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// --- shard transport ---

// shardResp is one shard's buffered answer. Bodies on this API are
// small (JSON, or a partial map bounded by the shard's wedge count),
// so buffering keeps retry and fan-out logic simple.
type shardResp struct {
	status int
	header http.Header
	body   []byte
}

// retryDelay is the wait before retry `attempt` (≥ 1): linear backoff
// with ±50% jitter. Without the jitter, a shard hiccup makes every
// fanned-out gather goroutine retry in lockstep, re-spiking the shard
// at exactly the moment it is trying to recover.
func (rt *Router) retryDelay(attempt int) time.Duration {
	base := rt.cfg.RetryBackoff * time.Duration(attempt)
	return base/2 + rand.N(base)
}

// forward issues one request to one shard, with cfg.Retries jittered
// linear-backoff retries on network errors. Non-2xx statuses are
// returned, not retried — the caller decides which are worth another
// candidate. hdr carries extra headers to relay shard-ward (the QoS
// identity of the originating client, via tenantHeaders); nil for
// router-internal traffic, which runs as the shard's default tenant.
func (rt *Router) forward(ctx context.Context, shard, method, pathQuery string, contentType string, floor uint64, hdr http.Header, body []byte) (*shardResp, error) {
	var lastErr error
	for attempt := 0; attempt <= rt.cfg.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(rt.retryDelay(attempt)):
			}
		}
		req, err := http.NewRequestWithContext(ctx, method, shard+pathQuery, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if floor > 0 {
			req.Header.Set("X-Bf-Min-Version", strconv.FormatUint(floor, 10))
		}
		for k, vs := range hdr {
			req.Header[k] = vs
		}
		rt.shardReqs.With(shard).Inc()
		start := time.Now()
		resp, err := rt.hc.Do(req)
		rt.shardSecs.With(shard).Observe(time.Since(start).Seconds())
		if err != nil {
			rt.shardErrs.With(shard, "network").Inc()
			lastErr = err
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue
		}
		b, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
		resp.Body.Close()
		if err != nil {
			rt.shardErrs.With(shard, "body").Inc()
			lastErr = err
			continue
		}
		if resp.StatusCode/100 == 5 {
			rt.shardErrs.With(shard, strconv.Itoa(resp.StatusCode)).Inc()
		}
		return &shardResp{status: resp.StatusCode, header: resp.Header, body: b}, nil
	}
	return nil, fmt.Errorf("shard %s unreachable: %w", shard, lastErr)
}

// statusError is a shard answer whose status the caller does not
// accept; it carries the answer for relay.
type statusError struct {
	shard string
	sr    *shardResp
}

func (e *statusError) Error() string {
	return fmt.Sprintf("shard %s: status %d: %s", e.shard, e.sr.status, truncate(e.sr.body, 200))
}

// call forwards one request to one shard (JSON when it has a body) and
// checks the answer: the error is forward's transport error, or a
// *statusError unless the status is 2xx or one of also.
func (rt *Router) call(ctx context.Context, shard, method, pathQuery string, hdr http.Header, body []byte, also ...int) (*shardResp, error) {
	contentType := ""
	if body != nil {
		contentType = "application/json"
	}
	sr, err := rt.forward(ctx, shard, method, pathQuery, contentType, 0, hdr, body)
	if err == nil && sr.status/100 != 2 && !slices.Contains(also, sr.status) {
		err = &statusError{shard: shard, sr: sr}
	}
	return sr, err
}

// reply is one call's outcome, as a fan-out collects it.
type reply struct {
	sr  *shardResp
	err error
}

// fanOut runs call(i) for every i in [0, n) concurrently and returns
// the results in index order. Every call that reaches more than one
// shard or partition goes through it.
func fanOut[R any](n int, call func(i int) R) []R {
	out := make([]R, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			out[i] = call(i)
		}()
	}
	wg.Wait()
	return out
}

// tenantHeaders extracts the QoS identity a client attached to its
// request, for relay to the shard that will charge and schedule it.
func tenantHeaders(r *http.Request) http.Header {
	var h http.Header
	for _, k := range []string{serveapi.TenantHeader, serveapi.PriorityHeader} {
		if v := r.Header.Get(k); v != "" {
			if h == nil {
				h = http.Header{}
			}
			h.Set(k, v)
		}
	}
	return h
}

// relay copies a shard's answer to the client, stamping which shard
// served it. The tenant and priority echoes pass through so a caller
// behind the router still sees what it was charged as.
func relay(w http.ResponseWriter, sr *shardResp, shard string) {
	for _, h := range []string{"Content-Type", "X-Cache", "X-Degraded", "X-Bf-Version", "Retry-After",
		serveapi.TenantHeader, serveapi.PriorityHeader} {
		if v := sr.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Bf-Shard", shard)
	w.WriteHeader(sr.status)
	_, _ = w.Write(sr.body)
}

// writeFailure answers with a failed call: a shard's answer is relayed
// verbatim, and a shard that did not answer is 503 with msg.
func (rt *Router) writeFailure(w http.ResponseWriter, err error, msg string) {
	var se *statusError
	if errors.As(err, &se) {
		relay(w, se.sr, se.shard)
		return
	}
	rt.writeErr(w, http.StatusServiceUnavailable, serveapi.CodeUnavailable, msg, 1000)
}

// readBody drains the client request body for replay against shards.
func readBody(r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	return io.ReadAll(io.LimitReader(r.Body, 64<<20))
}

// readOrder is the candidate order of a replica read: the successor
// list rotated by the graph's read cursor (spreading load), with the
// primary moved last so the final — authoritative — answer comes from
// the shard that took the write if every replica bounced.
func readOrder(succ []string, rr uint32) []string {
	if len(succ) <= 1 {
		return succ
	}
	primary := succ[0]
	start := int(rr) % len(succ)
	out := append(slices.Clone(succ[start:]), succ[:start]...)
	for i, s := range out {
		if s == primary {
			out = append(append(out[:i:i], out[i+1:]...), primary)
			break
		}
	}
	return out
}

// proxyRead forwards a read across candidates in order. A network
// failure, a 503 (replica behind its floor, or draining), or a 404
// from a non-final candidate (a replica that missed an out-of-band
// registration) advances to the next; the last candidate's answer is
// authoritative either way.
func (rt *Router) proxyRead(w http.ResponseWriter, r *http.Request, name, subpath string, body []byte) {
	ring := rt.currentRing()
	succ := ring.Successors(name, rt.cfg.Replicas)
	if len(succ) == 0 {
		rt.writeErr(w, http.StatusServiceUnavailable, serveapi.CodeUnavailable, "no shards configured", 1000)
		return
	}
	var floor uint64
	var rr uint32
	if m := rt.metaOf(name); m != nil {
		floor = m.floor.Load()
		rr = m.rr.Add(1)
	}
	cands := readOrder(succ, rr)
	pathQuery := "/v1/graphs/" + url.PathEscape(name) + subpath
	if q := r.URL.RawQuery; q != "" {
		pathQuery += "?" + q
	}
	var last *shardResp
	var lastShard string
	var lastErr error
	for i, shard := range cands {
		sr, err := rt.forward(r.Context(), shard, r.Method, pathQuery, r.Header.Get("Content-Type"), floor, tenantHeaders(r), body)
		if err != nil {
			lastErr = err
			continue
		}
		last, lastShard = sr, shard
		final := i == len(cands)-1
		if !final && (sr.status == http.StatusServiceUnavailable || sr.status == http.StatusNotFound) {
			continue
		}
		relay(w, sr, shard)
		return
	}
	if last != nil {
		relay(w, last, lastShard)
		return
	}
	rt.writeErr(w, http.StatusServiceUnavailable, serveapi.CodeUnavailable,
		fmt.Sprintf("all replicas unreachable: %v", lastErr), 1000)
}

// handleReadProxy serves the single-shard read endpoints
// (vertex-counts, edge-supports, peel). Partitioned graphs reject
// them: their per-vertex and peeling structure is not reducible from
// wedge partials (only the total count is), so offering a merged
// answer would be silently wrong.
func (rt *Router) handleReadProxy(subpath string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if m := rt.metaOf(name); m != nil && m.partitions >= 2 {
			rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument,
				fmt.Sprintf("%s is not supported on partitioned graphs (only count/estimate reduce across partitions)", strings.TrimPrefix(subpath, "/")), 0)
			return
		}
		body, err := readBody(r)
		if err != nil {
			rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument, err.Error(), 0)
			return
		}
		rt.proxyRead(w, r, name, subpath, body)
	}
}

// proxyWrite applies a write to the primary and, on success,
// replicates it best-effort to the remaining successors. Only the
// primary's answer reaches the client; a replica that misses the
// write is behind the floor and read requests skip it until it
// catches up (or a rebalance re-ships it).
func (rt *Router) proxyWrite(w http.ResponseWriter, r *http.Request, name, method, pathQuery string, body, replicaBody []byte) (*shardResp, string) {
	ring := rt.currentRing()
	succ := ring.Successors(name, rt.cfg.Replicas)
	if len(succ) == 0 {
		rt.writeErr(w, http.StatusServiceUnavailable, serveapi.CodeUnavailable, "no shards configured", 1000)
		return nil, ""
	}
	primary := succ[0]
	sr, err := rt.forward(r.Context(), primary, method, pathQuery, "application/json", 0, tenantHeaders(r), body)
	if err != nil {
		rt.writeErr(w, http.StatusServiceUnavailable, serveapi.CodeUnavailable,
			fmt.Sprintf("primary %s unreachable: %v", primary, err), 1000)
		return nil, ""
	}
	if sr.status/100 == 2 && len(succ) > 1 {
		for _, rep := range succ[1:] {
			if _, err := rt.forward(r.Context(), rep, method, pathQuery, "application/json", 0, tenantHeaders(r), replicaBody); err != nil {
				rt.shardErrs.With(rep, "replicate").Inc()
			}
		}
	}
	return sr, primary
}

// --- endpoint handlers ---

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	graphs := len(rt.graphs)
	shards := rt.ring.Len()
	rt.mu.RUnlock()
	h := serveapi.Health{Status: "ok", Role: "router", Graphs: graphs, Shards: shards}
	code := http.StatusOK
	if rt.draining.Load() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	rt.writeJSON(w, code, &h)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	rt.reg.WriteProm(w)
}

// handleList merges every shard's listing (one inventory scatter):
// replica copies collapse to one entry (keeping the newest version
// seen), and partition graphs fold into one logical entry (foldParts).
// A folded entry's Butterflies sums the partition-local counts, which
// counts only butterflies whose both wedge centers fell in the same
// partition — a documented lower bound; POST /count is the exact
// answer.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	lists, _ := rt.inventory(r.Context(), rt.currentRing().Nodes(), tenantHeaders(r))
	plain := map[string]serveapi.GraphInfo{}
	parts := map[string][]serveapi.GraphInfo{}
	for _, list := range lists {
		for _, gi := range list {
			if base, _, _, ok := splitPartName(gi.Name); ok {
				parts[base] = append(parts[base], gi)
			} else if e, seen := plain[gi.Name]; !seen || gi.Version > e.Version {
				plain[gi.Name] = gi
			}
		}
	}
	out := serveapi.GraphList{Graphs: make([]serveapi.GraphInfo, 0, len(plain)+len(parts))}
	for _, gi := range plain {
		out.Graphs = append(out.Graphs, gi)
	}
	for base, ps := range parts {
		_, _, p, _ := splitPartName(ps[0].Name)
		out.Graphs = append(out.Graphs, foldParts(base, p, ps))
	}
	slices.SortFunc(out.Graphs, func(a, b serveapi.GraphInfo) int { return strings.Compare(a.Name, b.Name) })
	rt.writeJSON(w, http.StatusOK, &out)
}

func (rt *Router) handleInfo(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if m := rt.metaOf(name); m != nil && m.partitions >= 2 {
		rt.partitionedInfo(w, r, name, m)
		return
	}
	rt.proxyRead(w, r, name, "", nil)
}

func (rt *Router) handleDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if m := rt.metaOf(name); m != nil && m.partitions >= 2 {
		rt.partitionedDrop(w, r, name, m)
		return
	}
	pathQuery := "/v1/graphs/" + url.PathEscape(name)
	sr, shard := rt.proxyWrite(w, r, name, http.MethodDelete, pathQuery, nil, nil)
	if sr == nil {
		return
	}
	if sr.status/100 == 2 {
		rt.forgetMeta(name)
	}
	relay(w, sr, shard)
}

func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req serveapi.RegisterRequest
	body, err := readBody(r)
	if err == nil {
		err = serve.DecodeBody(bytes.NewReader(body), &req)
	}
	if err != nil {
		rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument, err.Error(), 0)
		return
	}
	if req.Name == "" {
		rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument, "name is required", 0)
		return
	}
	if strings.Contains(req.Name, "@@") {
		rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument,
			`graph names containing "@@" are reserved for cluster partitions`, 0)
		return
	}
	if req.Partitions > 1 {
		rt.partitionedRegister(w, r, &req)
		return
	}
	// Replicated copies force replace=true so a stale copy left on a
	// replica (e.g. from before a rebalance) cannot wedge replication.
	replicaBody := body
	if rt.cfg.Replicas > 1 && !req.Replace {
		rr := req
		rr.Replace = true
		replicaBody, _ = json.Marshal(&rr)
	}
	sr, shard := rt.proxyWrite(w, r, req.Name, http.MethodPost, "/v1/graphs", body, replicaBody)
	if sr == nil {
		return
	}
	if sr.status/100 == 2 {
		var info serveapi.GraphInfo
		if json.Unmarshal(sr.body, &info) == nil {
			rt.ensureMeta(req.Name, 0, 0, 0).floor.Store(info.Version)
		}
	}
	relay(w, sr, shard)
}

func (rt *Router) handleMutate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := readBody(r)
	if err != nil {
		rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument, err.Error(), 0)
		return
	}
	if m := rt.metaOf(name); m != nil && m.partitions >= 2 {
		rt.partitionedMutate(w, r, name, m, body)
		return
	}
	pathQuery := "/v1/graphs/" + url.PathEscape(name) + "/mutate"
	sr, shard := rt.proxyWrite(w, r, name, http.MethodPost, pathQuery, body, body)
	if sr == nil {
		return
	}
	if sr.status/100 == 2 {
		var mr serveapi.MutateResponse
		if json.Unmarshal(sr.body, &mr) == nil {
			rt.ensureMeta(name, 0, 0, 0).floor.Store(mr.Version)
		}
	}
	relay(w, sr, shard)
}

// handleGather serves count and estimate. A partitioned graph is
// answered by scatter-gather once parse, the shard's own parse
// function, and the shard's priority check accept the body, so a
// malformed request fails as it would on a single node. Any other
// graph is proxied to a replica, which parses the body itself.
func (rt *Router) handleGather(parse func(io.Reader, url.Values) (serve.Query, error), subpath string, asEstimate bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		body, err := readBody(r)
		if err != nil {
			rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument, err.Error(), 0)
			return
		}
		if m := rt.metaOf(name); m != nil && m.partitions >= 2 {
			q, err := parse(bytes.NewReader(body), r.URL.Query())
			if err == nil {
				err = serve.CheckPriority(q.Priority())
			}
			if err != nil {
				rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument, err.Error(), 0)
				return
			}
			rt.partitionedCount(w, r, name, m, asEstimate)
			return
		}
		rt.proxyRead(w, r, name, subpath, body)
	}
}

// handleIngestOpen routes a streaming ingest to the name's primary.
// Ingest is primary-only: the reservoir is mutable point state that
// cannot be replicated by request replay, so the graph replicates (if
// at all) only after seal, via rebalance.
func (rt *Router) handleIngestOpen(w http.ResponseWriter, r *http.Request) {
	var req serveapi.IngestRequest
	body, err := readBody(r)
	if err == nil {
		err = serve.DecodeBody(bytes.NewReader(body), &req)
	}
	if err != nil {
		rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument, err.Error(), 0)
		return
	}
	if req.Name == "" {
		rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument, "name is required", 0)
		return
	}
	rt.ingestForward(w, r, req.Name, "/v1/ingest", body)
}

func (rt *Router) handleIngest(suffix string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		body, err := readBody(r)
		if err != nil {
			rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument, err.Error(), 0)
			return
		}
		rt.ingestForward(w, r, name, "/v1/ingest/"+url.PathEscape(name)+suffix, body)
	}
}

func (rt *Router) ingestForward(w http.ResponseWriter, r *http.Request, name, pathQuery string, body []byte) {
	ring := rt.currentRing()
	primary := ring.Owner(name)
	if primary == "" {
		rt.writeErr(w, http.StatusServiceUnavailable, serveapi.CodeUnavailable, "no shards configured", 1000)
		return
	}
	sr, err := rt.forward(r.Context(), primary, r.Method, pathQuery, r.Header.Get("Content-Type"), 0, tenantHeaders(r), body)
	if err != nil {
		rt.writeErr(w, http.StatusServiceUnavailable, serveapi.CodeUnavailable,
			fmt.Sprintf("primary %s unreachable: %v", primary, err), 1000)
		return
	}
	relay(w, sr, primary)
}

// handleCheckpoint fans the checkpoint to every shard and sums the
// per-shard stats; the first shard in ring order that fails answers.
func (rt *Router) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	nodes := rt.currentRing().Nodes()
	start := time.Now()
	outs := fanOut(len(nodes), func(i int) reply {
		sr, err := rt.call(r.Context(), nodes[i], http.MethodPost, "/v1/admin/checkpoint", tenantHeaders(r), nil)
		return reply{sr, err}
	})
	total := serveapi.CheckpointResponse{}
	for i, o := range outs {
		if o.err != nil {
			rt.writeFailure(w, o.err, fmt.Sprintf("checkpoint on %s failed: %v", nodes[i], o.err))
			return
		}
		var cp serveapi.CheckpointResponse
		if json.Unmarshal(o.sr.body, &cp) == nil {
			total.Graphs += cp.Graphs
			total.WALBytesBefore += cp.WALBytesBefore
			total.WALBytesAfter += cp.WALBytesAfter
		}
	}
	total.ElapsedMS = time.Since(start).Milliseconds()
	rt.writeJSON(w, http.StatusOK, &total)
}
