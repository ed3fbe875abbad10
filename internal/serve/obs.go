package serve

// Per-request observability: the API-surface tag, the request state
// carried through the handler chain (trace + debug knob), the /metrics
// families, the span→wire conversion, and the slow-query log entry.
// Every /metrics family lives on one obsv.Registry: request-path
// counters and histograms are recorded into it, and state another
// component already owns (limiter, cache, registry, store) is read
// into scrape-time families (obsv.Func) when /metrics is rendered.

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"butterfly/internal/obsv"
	"butterfly/serveapi"
)

// apiVer tags which HTTP surface a request arrived on.
type apiVer int

const (
	// apiLegacy is the original unversioned surface (deprecated; kept
	// as an alias of /v1 with the old error body).
	apiLegacy apiVer = iota
	// apiV1 is the versioned surface: /v1/... paths, uniform error
	// envelope, debug traces.
	apiV1
)

// String is the metrics label and cache-key spelling.
func (a apiVer) String() string {
	if a == apiV1 {
		return "v1"
	}
	return "legacy"
}

// reqState is the per-request observability state, carried in the
// request context by instrument. Handlers reach it via stateOf.
type reqState struct {
	tr    *obsv.Trace
	api   apiVer
	route string
	// debug is true when a /v1 request asked for ?debug=true: the
	// response carries the span tree and bypasses the result cache in
	// both directions (and request coalescing — a debug trace must
	// describe this execution, not a shared one).
	debug bool
	// tenant is the resolved QoS tenant the request is charged to
	// (headers first, body fields win; unknown names collapse to
	// "default"). lane is its resolved priority. Legacy-surface
	// requests always run as the default tenant, interactive lane.
	tenant string
	lane   lane
}

// root returns the request's root span (nil-safe: a nil state or trace
// yields a nil span whose methods all no-op).
func (st *reqState) root() *obsv.Span {
	if st == nil {
		return nil
	}
	return st.tr.Root()
}

type reqStateKey struct{}

// stateOf returns the request's observability state. Requests that
// bypassed instrument (direct handler tests) get an inert zero state:
// legacy surface, no trace, no debug.
func stateOf(r *http.Request) *reqState {
	if st, ok := r.Context().Value(reqStateKey{}).(*reqState); ok {
		return st
	}
	return &reqState{}
}

// withState installs st into the request context.
func withState(r *http.Request, st *reqState) *http.Request {
	return r.WithContext(context.WithValue(r.Context(), reqStateKey{}, st))
}

// debugRequested reports the ?debug query knob.
func debugRequested(r *http.Request) bool {
	switch r.URL.Query().Get("debug") {
	case "true", "1":
		return true
	}
	return false
}

// obsMetrics are the server's metric families, all on one registry.
// Route and stage label sets are bounded by construction (routes come
// from the static endpoint table; stages are the fixed top-level span
// names), so cardinality cannot run away.
type obsMetrics struct {
	reg           *obsv.Registry
	requests      *obsv.CounterVec   // {route, code}
	routeSeconds  *obsv.HistogramVec // {route, api}
	stageSeconds  *obsv.HistogramVec // {stage}
	responseBytes *obsv.Histogram
	slowQueries   *obsv.Counter
	// slowLogErrors counts slow-query log lines that failed to marshal
	// or write (a full disk, a closed file), which would otherwise be
	// lost without a trace.
	slowLogErrors *obsv.Counter
	estimates     *obsv.CounterVec // {kind}
	ingestEdges   *obsv.Counter
	// tenantSeconds is the per-tenant latency histogram behind the QoS
	// layer's p99 acceptance numbers. The tenant label set is bounded:
	// unresolvable names collapse to "default" before they get here.
	tenantSeconds *obsv.HistogramVec // {tenant}
	// coalesced counts follower requests that shared a leader's kernel
	// execution instead of running their own.
	coalesced *obsv.Counter
	// legacyReqs counts requests still arriving on the deprecated
	// unversioned aliases, by route — the signal for when the sunset
	// can complete.
	legacyReqs *obsv.CounterVec // {route}
	// checkpointErrors counts failed checkpoints, background or
	// admin-triggered, so operators can alert on a store that stopped
	// compacting. Nil without a store.
	checkpointErrors *obsv.Counter
}

func newObsMetrics(s *Server) *obsMetrics {
	reg := obsv.NewRegistry()
	m := &obsMetrics{
		reg: reg,
		requests: reg.Counter("bfserved_requests_total",
			"Finished HTTP requests by route and status code.", "route", "code"),
		routeSeconds: reg.Histogram("bfserved_route_seconds",
			"Latency of finished HTTP requests by route and API surface.",
			obsv.LatencyBuckets, "route", "api"),
		stageSeconds: reg.Histogram("bfserved_stage_seconds",
			"Duration of named request stages from the per-request trace.",
			obsv.LatencyBuckets, "stage"),
		responseBytes: reg.Histogram("bfserved_response_bytes",
			"Response body size in bytes.", obsv.SizeBuckets).With(),
		slowQueries: reg.Counter("bfserved_slow_queries_total",
			"Requests at or above the slow-query threshold.").With(),
		slowLogErrors: reg.Counter("bfserved_slow_query_log_errors_total",
			"Slow-query log lines that failed to marshal or write.").With(),
		estimates: reg.Counter("bfserved_estimates_total",
			"Approximate-tier answers served, by kind (reservoir|sample|degraded).",
			"kind"),
		ingestEdges: reg.Counter("bfserved_ingest_edges_total",
			"Edges accepted by streaming ingest.").With(),
		tenantSeconds: reg.Histogram("bfserved_tenant_seconds",
			"Latency of finished HTTP requests by QoS tenant.",
			obsv.LatencyBuckets, "tenant"),
		coalesced: reg.Counter("bfserved_coalesced_total",
			"Requests that joined an identical in-flight execution instead of running their own.").With(),
		legacyReqs: reg.Counter("bfserved_legacy_requests_total",
			"Requests on the deprecated unversioned routes, by route.",
			"route"),
	}

	// Scrape-time families: state owned by the limiter, cache, registry
	// and store, read when /metrics is rendered.
	scalar := func(name, help, kind string, read func() uint64) {
		obsv.Func(reg, name, help, kind, nil, func(emit func(uint64, ...string)) { emit(read()) })
	}
	scalar("bfserved_in_flight", "Requests currently executing.", "gauge",
		func() uint64 { return uint64(s.lim.inFlight()) })
	scalar("bfserved_queue_depth", "Requests waiting for an execution slot.", "gauge",
		func() uint64 { return uint64(s.lim.queueDepth()) })
	scalar("bfserved_shed_total", "Requests rejected with 429 because the queue was full.", "counter",
		s.lim.shedTotal)
	scalar("bfserved_cache_hits_total", "Result-cache hits.", "counter",
		func() uint64 { hits, _, _ := s.cache.stats(); return hits })
	scalar("bfserved_cache_misses_total", "Result-cache misses.", "counter",
		func() uint64 { _, misses, _ := s.cache.stats(); return misses })
	scalar("bfserved_cache_entries", "Result-cache current size.", "gauge",
		func() uint64 { _, _, size := s.cache.stats(); return uint64(size) })
	obsv.Func(reg, "bfserved_cache_hit_ratio", "Hits / (hits + misses) since start.", "gauge", nil,
		func(emit func(float64, ...string)) {
			if hits, misses, _ := s.cache.stats(); hits+misses > 0 {
				emit(float64(hits) / float64(hits+misses))
			}
		})
	scalar("bfserved_open_ingests", "Streaming ingests currently open (graphs in the loading state).", "gauge",
		func() uint64 { return uint64(len(s.reg.Ingests())) })
	obsv.Func(reg, "bfserved_ingest_edges_seen", "Edges consumed so far by each open ingest.", "gauge",
		[]string{"graph"}, func(emit func(int64, ...string)) {
			for _, ing := range s.reg.Ingests() {
				emit(ing.res.Seen(), ing.name)
			}
		})

	perTenant := func(name, help, kind string, val func(tenantStat) uint64) {
		obsv.Func(reg, name, help, kind, []string{"tenant"}, func(emit func(uint64, ...string)) {
			for _, ts := range s.lim.tenantStats() {
				emit(val(ts), ts.name)
			}
		})
	}
	perTenant("bfserved_tenant_admitted_total", "Requests granted an execution slot, per tenant.", "counter",
		func(ts tenantStat) uint64 { return ts.admitted })
	obsv.Func(reg, "bfserved_tenant_shed_total",
		"Requests shed per tenant by reason: queue (bounded queue full) or quota (token bucket empty).", "counter",
		[]string{"tenant", "reason"}, func(emit func(uint64, ...string)) {
			for _, ts := range s.lim.tenantStats() {
				emit(ts.shedQueue, ts.name, "queue")
				emit(ts.shedQuota, ts.name, "quota")
			}
		})
	perTenant("bfserved_tenant_evicted_total",
		"Queued requests abandoned before dispatch (deadline expiry or disconnect), per tenant.", "counter",
		func(ts tenantStat) uint64 { return ts.evicted })
	perTenant("bfserved_tenant_queue_depth", "Requests currently waiting for a slot, per tenant.", "gauge",
		func(ts tenantStat) uint64 { return uint64(ts.queued) })
	perTenant("bfserved_tenant_weight", "Configured weighted-round-robin weight, per tenant.", "gauge",
		func(ts tenantStat) uint64 { return uint64(ts.weight) })
	obsv.Func(reg, "bfserved_tenant_slo_burn",
		"Error-budget burn rate against the tenant's latency SLO (1.0 = spending the budget of a 99% objective exactly).", "gauge",
		[]string{"tenant"}, func(emit func(float64, ...string)) {
			for _, ts := range s.lim.tenantStats() {
				emit(ts.burn, ts.name)
			}
		})

	perGraph := func(name, help string, val func(*Snapshot) int64) {
		obsv.Func(reg, name, help, "gauge", []string{"graph"}, func(emit func(int64, ...string)) {
			for _, sn := range s.reg.Snapshots() {
				emit(val(sn), sn.Name)
			}
		})
	}
	perGraph("bfserved_graph_version", "Current version of each registered graph.",
		func(sn *Snapshot) int64 { return int64(sn.Version) })
	perGraph("bfserved_graph_edges", "Edge count of each registered graph's current version.",
		func(sn *Snapshot) int64 { return int64(sn.Graph.NumEdges()) })
	perGraph("bfserved_graph_butterflies", "Exact butterfly count of each registered graph's current version.",
		func(sn *Snapshot) int64 { return sn.Count })

	// Durability families exist only when the daemon runs with a data dir.
	if s.store != nil {
		scalar("bfserved_wal_bytes", "Current write-ahead log length.", "gauge",
			func() uint64 { return uint64(s.store.WALSize()) })
		scalar("bfserved_wal_fsyncs_total", "Completed WAL fsyncs (group commit batches many appends per fsync).", "counter",
			s.store.WALSyncs)
		scalar("bfserved_checkpoints_total", "Completed snapshot checkpoints.", "counter",
			s.store.Checkpoints)
		m.checkpointErrors = reg.Counter("bfserved_checkpoint_errors_total", "Failed checkpoints.").With()
	}
	return m
}

// observeRequest records one finished request: its route and status
// code, its latency (overall, by route and by tenant), its response
// size, and one stage-seconds observation per top-level span of the
// request's trace and per sub-stage of a mutate (wal.append, snapshot,
// partial.delta).
func (m *obsMetrics) observeRequest(st *reqState, code int, elapsed time.Duration, bytes int64) {
	m.requests.With(st.route, strconv.Itoa(code)).Inc()
	m.routeSeconds.With(st.route, st.api.String()).Observe(elapsed.Seconds())
	m.responseBytes.Observe(float64(bytes))
	if st.tenant != "" {
		m.tenantSeconds.With(st.tenant).Observe(elapsed.Seconds())
	}
	for _, stg := range append(st.tr.Stages(), st.tr.SubStages("mutate")...) {
		m.stageSeconds.With(stg.Name).Observe(stg.Dur.Seconds())
	}
}

// SpanToAPI converts a snapshot of a span tree into the wire
// representation (the cluster router's debug traces use it too).
func SpanToAPI(n obsv.SpanNode) *serveapi.TraceSpan {
	t := spanNode(n)
	return &t
}

func spanNode(n obsv.SpanNode) serveapi.TraceSpan {
	out := serveapi.TraceSpan{Name: n.Name, StartUS: n.StartUS, DurUS: n.DurUS, Dropped: n.Dropped}
	for _, c := range n.Children {
		out.Children = append(out.Children, spanNode(c))
	}
	return out
}

// setTrace attaches the span tree to the response types that carry
// one (the ?debug=true path).
func setTrace(resp any, t *serveapi.TraceSpan) {
	switch v := resp.(type) {
	case *serveapi.CountResponse:
		v.Trace = t
	case *serveapi.VertexCountsResponse:
		v.Trace = t
	case *serveapi.EdgeSupportsResponse:
		v.Trace = t
	case *serveapi.EstimateResponse:
		v.Trace = t
	case *serveapi.IngestResponse:
		v.Trace = t
	case *serveapi.PeelResponse:
		v.Trace = t
	case *serveapi.MutateResponse:
		v.Trace = t
	case *serveapi.CheckpointResponse:
		v.Trace = t
	case *serveapi.Health:
		v.Trace = t
	case *serveapi.GraphInfo:
		v.Trace = t
	case *serveapi.GraphList:
		v.Trace = t
	}
}

// slowEntry is one line of the structured slow-query log.
type slowEntry struct {
	TS        string             `json:"ts"`
	Route     string             `json:"route"`
	API       string             `json:"api"`
	Method    string             `json:"method"`
	Path      string             `json:"path"`
	Status    int                `json:"status"`
	ElapsedMS float64            `json:"elapsed_ms"`
	Trace     serveapi.TraceSpan `json:"trace"`
}
