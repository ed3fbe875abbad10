// Package serveapi defines the JSON wire types of the bfserved HTTP
// API — the request and response bodies exchanged by internal/serve
// (the server) and butterfly/client (the Go client). Keeping them in
// one non-internal package lets external programs construct requests
// and decode responses with the exact structs the server uses.
//
// See docs/SERVING.md for the full API reference.
package serveapi

// QoS headers (see docs/QOS.md). Requests may carry them instead of
// the body's tenant/priority fields (the body wins when both are
// present); /v1 responses echo the resolved values back, and a cluster
// router relays both directions unchanged, so a client can always see
// which bucket and lane it was actually charged as. /v1 only.
const (
	// TenantHeader names the tenant the request is charged to.
	TenantHeader = "X-Bf-Tenant"
	// PriorityHeader selects the lane: "interactive" (default) or
	// "batch".
	PriorityHeader = "X-Bf-Priority"
)

// RegisterRequest loads a graph into the server's registry under a
// name. Exactly one source must be set: Dataset (a synthetic stand-in
// of the paper's datasets, optionally scaled), Path (a server-side
// KONECT or MatrixMarket file; requires the server's -allow-path-load
// flag), or inline Edges with M×N dimensions.
type RegisterRequest struct {
	Name string `json:"name"`
	// Replace allows overwriting an existing graph (its version
	// counter restarts at 1).
	Replace bool `json:"replace,omitempty"`

	// Dataset names a synthetic paper dataset (see bfc -list); Scale
	// shrinks it (0 or 1 = full size).
	Dataset string `json:"dataset,omitempty"`
	Scale   int    `json:"scale,omitempty"`

	// Path is a server-side file; Format is "konect" (default) or
	// "matrixmarket".
	Path   string `json:"path,omitempty"`
	Format string `json:"format,omitempty"`

	// Edges is an inline edge list over vertex sets of size M and N.
	M     int      `json:"m,omitempty"`
	N     int      `json:"n,omitempty"`
	Edges [][2]int `json:"edges,omitempty"`

	// Partitions > 1 asks a cluster router to hash-partition the
	// graph's V1 side across that many shard-resident partition graphs
	// and answer counts by scatter-gather reduction (see
	// docs/CLUSTER.md). Only meaningful against a router; a single
	// bfserved rejects it.
	Partitions int `json:"partitions,omitempty"`
}

// GraphInfo describes one registered graph at its current version.
// State is empty for registered (exact-countable) graphs; graphs still
// streaming through /v1/ingest appear in listings with State "loading",
// Version 0, NumEdges = edges seen so far and Butterflies = the current
// reservoir estimate (rounded).
type GraphInfo struct {
	Name        string  `json:"name"`
	Version     uint64  `json:"version"`
	State       string  `json:"state,omitempty"`
	NumV1       int     `json:"v1"`
	NumV2       int     `json:"v2"`
	NumEdges    int64   `json:"edges"`
	Butterflies int64   `json:"butterflies"`
	Density     float64 `json:"density"`
	// Partitions, set only by a cluster router, reports how many
	// shard-resident V1 partitions the graph spans (absent/0 for an
	// ordinary single-shard graph). For partitioned graphs Version is
	// the sum of the partition versions — monotone under mutation.
	Partitions int        `json:"partitions,omitempty"`
	Trace      *TraceSpan `json:"trace,omitempty"`
}

// GraphList is the response of GET /graphs.
type GraphList struct {
	Graphs []GraphInfo `json:"graphs"`
	Trace  *TraceSpan  `json:"trace,omitempty"`
}

// ResultMeta is the metadata block shared by every query response
// (count, vertex-counts, edge-supports, estimate, peel): which graph
// snapshot answered, and how. It is embedded first in each response
// type, so graph/version keep their historical leading position on
// the wire and the optional fields marshal only when set — a plain
// single-node exact answer is byte-identical to the pre-ResultMeta
// shape on both API surfaces.
type ResultMeta struct {
	// Graph and Version identify the snapshot the answer was computed
	// on. A cluster router reports the sum of partition versions.
	Graph   string `json:"graph"`
	Version uint64 `json:"version"`
	// Cache, when present, reports a body produced outside the result
	// cache: "bypass" for ?debug=true and degrade-to-estimate answers
	// (never stored), "merged" for a router answer served from its
	// pinned merged reduction. Cacheable bodies omit it — the X-Cache
	// response header is the per-request hit/miss/coalesced signal, so
	// identical queries can share one cached body across tenants.
	Cache string `json:"cache,omitempty"`
	// Degraded marks an approximate answer served in place of an exact
	// one: the admission limiter's degrade-to-estimate path, or a
	// router reduction with dead partitions.
	Degraded bool `json:"degraded,omitempty"`
	// Partitions, set only by a cluster router, reports that the
	// answer was reduced from that many shard-resident partitions.
	Partitions int `json:"partitions,omitempty"`
}

// CountRequest asks for an exact butterfly count. All fields are
// optional — the zero value runs the automatically selected family
// member sequentially. Algorithm is one of "family" (default),
// "wedge-hash", "vertex-priority", "sort-aggregate", "spgemm";
// Invariant picks the family member (0 = auto, 1–8); Agg is the
// wedge-aggregation mode "auto" (default), "sort", "hash", "hist" or
// "batch" (family algorithm only). Threads 0 or 1 counts
// sequentially, more runs that many workers, and a negative value
// runs one worker per CPU.
//
// Order ("natural", "degree-asc" or "degree-desc") and Hub ("auto",
// "never" or "always") are accepted and ignored: the count chooses
// its own vertex layout and hub path. Any other spelling is still
// rejected.
//
// Tenant and Priority identify the caller to the admission
// controller (see docs/QOS.md): Tenant selects the token bucket and
// fair-share weight the request is charged against (unknown or empty
// names fall back to the default tenant) and Priority selects the
// lane, "interactive" (default) or "batch". Both are /v1-only — the
// legacy surface always runs as the default tenant — and may equally
// be supplied as X-Bf-Tenant / X-Bf-Priority headers; body fields
// win when both are present. The same pair exists on every /v1
// request type that passes admission.
type CountRequest struct {
	Algorithm string `json:"algorithm,omitempty"`
	Invariant int    `json:"invariant,omitempty"`
	Threads   int    `json:"threads,omitempty"`
	BlockSize int    `json:"block,omitempty"`
	Order     string `json:"order,omitempty"`
	Hub       string `json:"hub,omitempty"`
	Agg       string `json:"agg,omitempty"`
	// TimeoutMillis overrides the server's default per-request
	// deadline (capped by the server's maximum).
	TimeoutMillis int    `json:"timeout_ms,omitempty"`
	Tenant        string `json:"tenant,omitempty"`
	Priority      string `json:"priority,omitempty"`
}

// CountResponse reports an exact count. ResultMeta identifies the
// graph snapshot the count was computed on. Agg, present for family
// counts, is the wedge-aggregation mode the count actually ran — the
// concrete resolution of the request's "auto", never "auto" itself.
// Trace is present only when the request asked for ?debug=true on
// the /v1 surface.
type CountResponse struct {
	ResultMeta
	Butterflies int64      `json:"butterflies"`
	Agg         string     `json:"agg,omitempty"`
	ElapsedMS   int64      `json:"elapsed_ms"`
	Trace       *TraceSpan `json:"trace,omitempty"`
}

// VertexCountsRequest asks for the per-vertex butterfly counts of one
// side ("v1" or "v2", default "v1"), returning the Top highest-count
// vertices (default 100; ≤ 0 returns all). Tenant/Priority as on
// CountRequest.
type VertexCountsRequest struct {
	Side          string `json:"side,omitempty"`
	Top           int    `json:"top,omitempty"`
	TimeoutMillis int    `json:"timeout_ms,omitempty"`
	Tenant        string `json:"tenant,omitempty"`
	Priority      string `json:"priority,omitempty"`
}

// VertexCount pairs a vertex id with its butterfly count.
type VertexCount struct {
	Vertex int   `json:"vertex"`
	Count  int64 `json:"count"`
}

// VertexCountsResponse lists the top vertices by butterfly
// participation; Total sums over the whole side (twice the butterfly
// count).
type VertexCountsResponse struct {
	ResultMeta
	Side      string        `json:"side"`
	Total     int64         `json:"total"`
	Vertices  []VertexCount `json:"vertices"`
	ElapsedMS int64         `json:"elapsed_ms"`
	Trace     *TraceSpan    `json:"trace,omitempty"`
}

// EdgeSupportsRequest asks for the Top highest-support edges (default
// 100; ≤ 0 returns all). Tenant/Priority as on CountRequest.
type EdgeSupportsRequest struct {
	Top           int    `json:"top,omitempty"`
	TimeoutMillis int    `json:"timeout_ms,omitempty"`
	Tenant        string `json:"tenant,omitempty"`
	Priority      string `json:"priority,omitempty"`
}

// EdgeSupport is one edge with its butterfly support.
type EdgeSupport struct {
	U     int   `json:"u"`
	V     int   `json:"v"`
	Count int64 `json:"count"`
}

// EdgeSupportsResponse lists the top edges by butterfly support;
// Total sums supports over all edges (four times the butterfly count).
type EdgeSupportsResponse struct {
	ResultMeta
	Total     int64         `json:"total"`
	Edges     []EdgeSupport `json:"edges"`
	ElapsedMS int64         `json:"elapsed_ms"`
	Trace     *TraceSpan    `json:"trace,omitempty"`
}

// EstimateRequest asks for an approximate count. On a registered graph
// Strategy is "vertices", "edges", "sparsify" (keep-probability P), or
// "auto"/empty (edge sampling, the usual lowest-variance choice).
// Samples > 0 draws a fixed sample; Samples == 0 (vertices/edges only)
// sizes the sample adaptively: draws accumulate until the 95% CI
// half-width falls below TargetRelErr × estimate (default 5%), bounded
// by MaxSamples. Estimators are deterministic given Seed, which is
// part of the result-cache key. On a graph still loading through
// /v1/ingest every field is ignored: the response comes from the live
// reservoir estimator.
type EstimateRequest struct {
	Strategy      string  `json:"strategy,omitempty"`
	Samples       int     `json:"samples,omitempty"`
	P             float64 `json:"p,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	TargetRelErr  float64 `json:"target_rel_err,omitempty"`
	MaxSamples    int     `json:"max_samples,omitempty"`
	TimeoutMillis int     `json:"timeout_ms,omitempty"`
	Tenant        string  `json:"tenant,omitempty"`
	Priority      string  `json:"priority,omitempty"`
}

// EstimateResponse reports an estimated count with its error bars.
// StdErr is the standard error of the estimator and CI95 its 1.96×
// half-width (both absent for "sparsify", which reports no error
// bars). On a registered graph Strategy names the estimator that ran
// and Samples the draws taken. On a loading graph State is "loading",
// Strategy is "reservoir", Version is 0, and EdgesSeen/ReservoirSize
// describe the stream; the estimate is exact (zero error bars) while
// the stream still fits the reservoir. ResultMeta.Degraded marks an
// estimate served in place of an exact count by the admission
// limiter's degrade-to-estimate path (see CountRequest) or a router
// reduction with dead partitions: PartitionsLive of
// ResultMeta.Partitions shard partials reduced and scaled by
// (Partitions/PartitionsLive)² (Strategy "partitions").
type EstimateResponse struct {
	ResultMeta
	State          string     `json:"state,omitempty"`
	Strategy       string     `json:"strategy,omitempty"`
	Estimate       float64    `json:"estimate"`
	StdErr         float64    `json:"stderr,omitempty"`
	CI95           float64    `json:"ci95,omitempty"`
	Samples        int        `json:"samples,omitempty"`
	EdgesSeen      int64      `json:"edges_seen,omitempty"`
	ReservoirSize  int        `json:"reservoir_size,omitempty"`
	PartitionsLive int        `json:"partitions_live,omitempty"`
	ElapsedMS      int64      `json:"elapsed_ms"`
	Trace          *TraceSpan `json:"trace,omitempty"`
}

// IngestRequest opens a streaming ingest (POST /v1/ingest): a graph of
// declared dimensions M×N that will receive edges in NDJSON batches
// (POST /v1/ingest/{name}/edges, one `[u,v]` JSON array per line).
// While loading, /v1/estimate answers from a reservoir estimator of
// the given capacity (server default when 0); sealing promotes the
// graph to a normal exact-countable registered graph. Replace drops an
// existing registered graph or open ingest of the same name. The
// in-flight ingest is not durable — only sealing writes to the WAL.
type IngestRequest struct {
	Name      string `json:"name"`
	M         int    `json:"m"`
	N         int    `json:"n"`
	Reservoir int    `json:"reservoir,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Replace   bool   `json:"replace,omitempty"`
}

// IngestResponse reports the live state of a streaming ingest: the
// stream bookkeeping and the current reservoir estimate with error
// bars. Accepted, present on append responses, counts the edges
// consumed from that request. Exact reports that the whole stream
// still fits the reservoir (the estimate is the true count so far).
type IngestResponse struct {
	Graph         string     `json:"graph"`
	State         string     `json:"state"`
	M             int        `json:"m"`
	N             int        `json:"n"`
	EdgesSeen     int64      `json:"edges_seen"`
	Accepted      int64      `json:"accepted,omitempty"`
	ReservoirSize int        `json:"reservoir_size"`
	ReservoirCap  int        `json:"reservoir_cap"`
	Estimate      float64    `json:"estimate"`
	StdErr        float64    `json:"stderr,omitempty"`
	CI95          float64    `json:"ci95,omitempty"`
	Exact         bool       `json:"exact,omitempty"`
	ElapsedMS     int64      `json:"elapsed_ms"`
	Trace         *TraceSpan `json:"trace,omitempty"`
}

// PeelRequest runs a k-tip or k-wing peel. Mode is "tip" (Side "v1"
// or "v2", default "v1") or "wing". Engine selects the peeling
// execution strategy: "delta" (default, incremental wedge-delta
// peeling) or "recount" (round-synchronous full recomputation). Both
// engines produce identical subgraphs; they differ in speed and in the
// Rounds they report. Threads ≤ 0 means one worker per CPU; neither
// the thread count nor the engine affects the result.
type PeelRequest struct {
	Mode          string `json:"mode"`
	K             int64  `json:"k"`
	Side          string `json:"side,omitempty"`
	Engine        string `json:"engine,omitempty"`
	Threads       int    `json:"threads,omitempty"`
	TimeoutMillis int    `json:"timeout_ms,omitempty"`
	Tenant        string `json:"tenant,omitempty"`
	Priority      string `json:"priority,omitempty"`
}

// PeelResponse summarizes the surviving subgraph. Engine is the engine
// that ran ("delta" or "recount"); Rounds is its number of peeled
// batches (delta) or fixpoint rounds (recount) — engine-specific by
// nature, which is why the result cache keys peels by engine.
type PeelResponse struct {
	ResultMeta
	Mode           string     `json:"mode"`
	K              int64      `json:"k"`
	Engine         string     `json:"engine"`
	Rounds         int        `json:"rounds"`
	EdgesRemaining int64      `json:"edges_remaining"`
	Butterflies    int64      `json:"butterflies"`
	ElapsedMS      int64      `json:"elapsed_ms"`
	Trace          *TraceSpan `json:"trace,omitempty"`
}

// MutateRequest applies a batch of edge mutations to a graph:
// Inserts first, then Deletes, as one atomic batch producing one new
// graph version. Endpoints must lie inside the graph's original
// dimensions. Duplicate inserts and missing deletes are counted but
// not errors.
type MutateRequest struct {
	Inserts [][2]int `json:"inserts,omitempty"`
	Deletes [][2]int `json:"deletes,omitempty"`
	// Tenant/Priority as on CountRequest (mutations pass the same
	// admission controller as queries).
	Tenant   string `json:"tenant,omitempty"`
	Priority string `json:"priority,omitempty"`
}

// MutateResponse reports the effect of a mutation batch.
type MutateResponse struct {
	Graph string `json:"graph"`
	// Version of the snapshot produced by this batch.
	Version uint64 `json:"version"`
	// Inserted/Deleted count the mutations that actually changed the
	// edge set (duplicates and misses are excluded).
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	// Created/Destroyed count butterflies added and removed.
	Created   int64 `json:"created"`
	Destroyed int64 `json:"destroyed"`
	// Count and Edges describe the new version.
	Count     int64      `json:"count"`
	Edges     int64      `json:"edges"`
	ElapsedMS int64      `json:"elapsed_ms"`
	Trace     *TraceSpan `json:"trace,omitempty"`
}

// CheckpointResponse reports a completed POST /admin/checkpoint: how
// many graphs were snapshotted and how far the write-ahead log was
// compacted. Requires the daemon to run with -data-dir (400
// otherwise).
type CheckpointResponse struct {
	Graphs         int        `json:"graphs"`
	WALBytesBefore int64      `json:"wal_bytes_before"`
	WALBytesAfter  int64      `json:"wal_bytes_after"`
	ElapsedMS      int64      `json:"elapsed_ms"`
	Trace          *TraceSpan `json:"trace,omitempty"`
}

// Health is the response of GET /healthz. Role identifies the process
// in a cluster topology: "single" (standalone daemon, the default),
// "shard" (a daemon behind a router), or "router" (the routing tier —
// client.DialCluster uses this to discover the router among a list of
// candidate addresses). Shards reports the number of configured shard
// backends, router role only.
type Health struct {
	Status   string     `json:"status"` // "ok" or "draining"
	Role     string     `json:"role,omitempty"`
	Graphs   int        `json:"graphs"`
	InFlight int        `json:"in_flight"`
	Queued   int        `json:"queued"`
	Shards   int        `json:"shards,omitempty"`
	Trace    *TraceSpan `json:"trace,omitempty"`
}

// ExportResponse is the body of GET /v1/internal/export/{name}: a
// graph's full published state, serialized for shard hand-off. The
// exporting shard answers from its current snapshot — which, under a
// durable store, is exactly the newest bfstore snapshot plus the
// replayed WAL tail — so rebalancing ships state without quiescing
// the graph.
type ExportResponse struct {
	Name    string   `json:"name"`
	M       int      `json:"m"`
	N       int      `json:"n"`
	Version uint64   `json:"version"`
	Count   int64    `json:"count"`
	Edges   [][2]int `json:"edges"`
}

// AdoptRequest is the body of POST /v1/internal/adopt: install an
// exported graph at its carried version. The adopting shard recounts
// the edge set and refuses the adoption if the recount disagrees with
// the carried count (the same logical-corruption gate store recovery
// applies), then WAL-logs the graph if the shard is durable.
type AdoptRequest struct {
	Name    string   `json:"name"`
	M       int      `json:"m"`
	N       int      `json:"n"`
	Version uint64   `json:"version"`
	Count   int64    `json:"count"`
	Edges   [][2]int `json:"edges"`
	Replace bool     `json:"replace,omitempty"`
}

// RebalanceRequest is the body of POST /admin/rebalance on a router.
// Shards, when non-empty, replaces the router's shard set (join/leave)
// before re-placing graphs; empty re-places against the current set.
type RebalanceRequest struct {
	Shards []string `json:"shards,omitempty"`
}

// MovedGraph is one graph (or partition) relocated by a rebalance.
type MovedGraph struct {
	Graph   string `json:"graph"`
	From    string `json:"from"`
	To      string `json:"to"`
	Version uint64 `json:"version"`
	Edges   int64  `json:"edges"`
}

// RebalanceResponse reports a completed /admin/rebalance: the new
// shard count, every graph movement (snapshot shipped from the old
// owner, adopted at the same version by the new one), and any
// failures (failed moves leave the graph at its old home and routing
// unchanged for it).
type RebalanceResponse struct {
	Shards    int          `json:"shards"`
	Moved     []MovedGraph `json:"moved"`
	Errors    []string     `json:"errors,omitempty"`
	ElapsedMS int64        `json:"elapsed_ms"`
	Trace     *TraceSpan   `json:"trace,omitempty"`
}

// Error is the JSON body of every non-2xx response on the legacy
// (unversioned) surface. The /v1 surface replaces it with
// ErrorEnvelope; the legacy routes keep emitting this shape for
// compatibility and are deprecated.
type Error struct {
	Status  int    `json:"status"`
	Message string `json:"error"`
}

// Machine-readable error codes carried by ErrorDetail.Code on the /v1
// surface. Clients should branch on these, not on message text.
const (
	// CodeInvalidArgument is a malformed or out-of-range request (400).
	CodeInvalidArgument = "invalid_argument"
	// CodeNotFound names an unknown graph (404).
	CodeNotFound = "not_found"
	// CodeAlreadyExists is a register collision without replace (409).
	CodeAlreadyExists = "already_exists"
	// CodeOverloaded is admission-control shedding (429): the shared
	// capacity or the caller's bounded tenant queue is full.
	// RetryAfterMS tells the client when to retry.
	CodeOverloaded = "overloaded"
	// CodeQuotaExhausted is a 429 specific to the caller: the tenant's
	// token bucket is empty, independent of server load. RetryAfterMS
	// is derived from the bucket's refill rate — the time until the
	// next token. See docs/QOS.md.
	CodeQuotaExhausted = "quota_exhausted"
	// CodeDeadlineExceeded is a request that ran past its deadline
	// (504).
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeNotDurable is a state change the write-ahead log refused to
	// record; the change was rolled back (500).
	CodeNotDurable = "not_durable"
	// CodeLoading is an exact query against a graph still streaming
	// through /v1/ingest (409); use /v1/estimate or seal the ingest.
	CodeLoading = "loading"
	// CodeNotIngesting is an ingest operation (append/seal/abort)
	// against a graph that is not an open ingest — typically already
	// sealed (409).
	CodeNotIngesting = "not_ingesting"
	// CodeReplicaBehind is a read carrying an X-Bf-Min-Version floor
	// that this replica's snapshot has not reached yet (503); the
	// router retries another replica. RetryAfterMS carries a short
	// catch-up hint.
	CodeReplicaBehind = "replica_behind"
	// CodeUnavailable is a router answer when every candidate shard
	// for the request was unreachable after retries (503);
	// RetryAfterMS tells the client when to try again.
	CodeUnavailable = "unavailable"
	// CodeInternal is everything else (500).
	CodeInternal = "internal"
)

// ErrorDetail is the body of the /v1 error envelope: a machine code
// from the Code* constants, a human-readable message, an optional
// retry hint (with CodeOverloaded, CodeQuotaExhausted, and the 503
// codes), and — when the request asked for ?debug=true — the
// request's span tree.
type ErrorDetail struct {
	Code         string     `json:"code"`
	Message      string     `json:"message"`
	RetryAfterMS int64      `json:"retry_after_ms,omitempty"`
	Trace        *TraceSpan `json:"trace,omitempty"`
}

// ErrorEnvelope is the uniform JSON body of every non-2xx response on
// the /v1 surface, including 429 and 504.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// TraceSpan is one node of a request's span tree: a named stage with
// its start offset and duration in microseconds relative to the
// request start. Dropped counts children discarded past the server's
// per-span cap.
type TraceSpan struct {
	Name     string      `json:"name"`
	StartUS  int64       `json:"start_us"`
	DurUS    int64       `json:"dur_us"`
	Dropped  int         `json:"dropped,omitempty"`
	Children []TraceSpan `json:"children,omitempty"`
}
