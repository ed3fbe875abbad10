package serve

// Per-request observability: the API-surface tag, the request state
// carried through the handler chain (trace + debug knob), the
// obsv-backed metric families, the span→wire conversion, and the
// slow-query log entry. The flat legacy metrics in metrics.go keep
// their exact exposition; everything here is additive.

import (
	"context"
	"net/http"
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

// obsMetrics are the histogram-backed metric families introduced by
// the observability layer, rendered after the flat legacy metrics on
// /metrics. Route and stage label sets are bounded by construction
// (routes come from the static endpoint table; stages are the fixed
// top-level span names), so cardinality cannot run away.
type obsMetrics struct {
	reg           *obsv.Registry
	routeSeconds  *obsv.HistogramVec // {route, api}
	stageSeconds  *obsv.HistogramVec // {stage}
	responseBytes *obsv.HistogramVec
	slowQueries   *obsv.CounterVec
	estimates     *obsv.CounterVec // {kind}
	ingestEdges   *obsv.CounterVec
	// tenantSeconds is the per-tenant latency histogram behind the QoS
	// layer's p99 acceptance numbers. The tenant label set is bounded:
	// unresolvable names collapse to "default" before they get here.
	tenantSeconds *obsv.HistogramVec // {tenant}
	// coalesced counts follower requests that shared a leader's kernel
	// execution instead of running their own.
	coalesced *obsv.CounterVec
	// legacyReqs counts requests still arriving on the deprecated
	// unversioned aliases, by route — the signal for when the sunset
	// can complete.
	legacyReqs *obsv.CounterVec // {route}
}

func newObsMetrics() *obsMetrics {
	reg := obsv.NewRegistry()
	return &obsMetrics{
		reg: reg,
		routeSeconds: reg.Histogram("bfserved_route_seconds",
			"Latency of finished HTTP requests by route and API surface.",
			obsv.LatencyBuckets, "route", "api"),
		stageSeconds: reg.Histogram("bfserved_stage_seconds",
			"Duration of named request stages from the per-request trace.",
			obsv.LatencyBuckets, "stage"),
		responseBytes: reg.Histogram("bfserved_response_bytes",
			"Response body size in bytes.", obsv.SizeBuckets),
		slowQueries: reg.Counter("bfserved_slow_queries_total",
			"Requests at or above the slow-query threshold."),
		estimates: reg.Counter("bfserved_estimates_total",
			"Approximate-tier answers served, by kind (reservoir|sample|degraded).",
			"kind"),
		ingestEdges: reg.Counter("bfserved_ingest_edges_total",
			"Edges accepted by streaming ingest."),
		tenantSeconds: reg.Histogram("bfserved_tenant_seconds",
			"Latency of finished HTTP requests by QoS tenant.",
			obsv.LatencyBuckets, "tenant"),
		coalesced: reg.Counter("bfserved_coalesced_total",
			"Requests that joined an identical in-flight execution instead of running their own."),
		legacyReqs: reg.Counter("bfserved_legacy_requests_total",
			"Requests on the deprecated unversioned routes, by route.",
			"route"),
	}
}

// observeRequest records one finished request into the histogram
// families: route latency, response size, and one stage-seconds
// observation per top-level span of the request's trace and per
// sub-stage of a mutate (wal.append, snapshot, partial.delta).
func (m *obsMetrics) observeRequest(st *reqState, elapsed time.Duration, bytes int64) {
	m.routeSeconds.With(st.route, st.api.String()).Observe(elapsed.Seconds())
	m.responseBytes.With().Observe(float64(bytes))
	if st.tenant != "" {
		m.tenantSeconds.With(st.tenant).Observe(elapsed.Seconds())
	}
	for _, stg := range append(st.tr.Stages(), st.tr.SubStages("mutate")...) {
		m.stageSeconds.With(stg.Name).Observe(stg.Dur.Seconds())
	}
}

// spanToAPI converts a snapshot of the request's span tree into the
// wire representation.
func spanToAPI(n obsv.SpanNode) *serveapi.TraceSpan {
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
