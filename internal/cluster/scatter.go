package cluster

// Scatter-gather cross-shard counting. A graph registered with
// partitions=P has its V1 side hash-split into P partition graphs
// placed on (up to P distinct) shards. Each shard's wedge partial map
// β^s(v,w) — wedges centered at its resident V1 vertices — is fetched
// via /v1/internal/partial, k-way merged at the router, and reduced
// by Σ C(Σ_s β^s, 2). The split is over wedge CENTERS, so every wedge
// lives on exactly one shard and the reduction is exact: the binomial
// is applied once per V2 pair, after summing, never per shard (C is
// not additive).
//
// When a partition is unreachable, the merge over the L live
// partitions counts exactly the butterflies whose both V1 vertices
// landed in live partitions — a (L/P)² vertex sample — so the router
// degrades to estimate = live × (P/L)², the partition-sampling
// estimator, marked Degraded with the X-Degraded header.

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	"butterfly/internal/obsv"
	"butterfly/internal/serve"
	"butterfly/serveapi"
)

// partialEpochHeader mirrors serve.PartialEpochHeader: the shard's
// partial-log activation token, pinned with the partials and echoed
// back in `?epoch=`.
const partialEpochHeader = "X-Bf-Partial-Epoch"

// partHomes places the P partitions of a graph: partition i lives on
// element i mod H of the graph's ring successor list, H = min(P,
// shards). Deterministic in (name, ring), so a restarted router
// re-derives placement without any stored state.
func (rt *Router) partHomes(ring *Ring, name string, p int) []string {
	homes := ring.Successors(name, p)
	if len(homes) == 0 {
		return nil
	}
	out := make([]string, p)
	for i := range out {
		out[i] = homes[i%len(homes)]
	}
	return out
}

// partialResult is one partition's answer to a gather.
type partialResult struct {
	part    int
	shard   string
	frame   partFrame // zero when err is set
	err     error
	elapsed time.Duration
}

// fetchPartial fetches one partition's frame. With a pinned copy it
// asks for the delta since the pinned version and applies it to the
// pin; without one, or when the shard answers with a full frame
// because its history was evicted or its epoch changed, the decoded
// full map becomes the partition's new base.
func (rt *Router) fetchPartial(ctx context.Context, shard, pname string, pin *partPin) (partFrame, error) {
	path := "/v1/internal/partial/" + url.PathEscape(pname)
	if pin != nil {
		path += fmt.Sprintf("?since=%d&epoch=%d", pin.version, pin.epoch)
	}
	sr, err := rt.call(ctx, shard, http.MethodGet, path, nil, nil)
	if err != nil {
		return partFrame{}, err
	}
	epoch, _ := strconv.ParseUint(sr.header.Get(partialEpochHeader), 10, 64)
	if serveapi.PartialFrameKind(sr.body) == serveapi.PartialFrameDelta {
		from, to, delta, err := serveapi.DecodePartialDelta(sr.body)
		if err != nil {
			return partFrame{}, err
		}
		if pin == nil || from != pin.version {
			return partFrame{}, fmt.Errorf("shard %s: delta frame from v%d does not match pinned copy", shard, from)
		}
		if epoch == 0 {
			epoch = pin.epoch
		}
		return pin.advance(to, epoch, delta)
	}
	version, partials, err := serveapi.DecodePartial(sr.body)
	if err != nil {
		return partFrame{}, err
	}
	return fullFrame(version, epoch, partials), nil
}

// gatherPartials fetches every partition's frame concurrently against
// the pins in from, each under its own PartialTimeout deadline, so one
// dead shard delays the answer by at most the deadline rather than the
// client's full patience. Pinned partitions sync by delta (changed keys
// only — usually orders of magnitude smaller than the map).
func (rt *Router) gatherPartials(ctx context.Context, name string, homes []string, from *pinSet) []partialResult {
	p := len(homes)
	return fanOut(p, func(i int) partialResult {
		start := time.Now()
		pctx, cancel := context.WithTimeout(ctx, rt.cfg.PartialTimeout)
		defer cancel()
		shard := homes[i]
		pname := partName(name, i, p)
		pin := from.part(i)
		fr, err := rt.fetchPartial(pctx, shard, pname, pin)
		if err != nil && pin != nil && pctx.Err() == nil {
			// A broken delta path (stale pin, frame the pin cannot
			// absorb) must not read as a dead shard: fetch cold once.
			fr, err = rt.fetchPartial(pctx, shard, pname, nil)
		}
		res := partialResult{part: i, shard: shard, err: err}
		if err == nil {
			res.frame = fr
			switch {
			case fr.kind != "full":
				rt.partialHits.With(fr.kind).Inc()
			case pin == nil:
				rt.partialMisses.With("cold").Inc()
			default:
				rt.partialMisses.With("full").Inc()
			}
		}
		res.elapsed = time.Since(start)
		return res
	})
}

// gather syncs every partition against the pin set current when it
// starts, reduces, and installs the successor set (unless another
// gather or a clear got there first). The reduction is incremental
// when every partition answered by delta; debug, the ?debug=true root
// span (nil otherwise), receives the scatter and merge spans and
// forces the full merge.
func (rt *Router) gather(ctx context.Context, name string, m *graphMeta, homes []string, debug *obsv.Span) gatherOutcome {
	gen, from := m.pc.begin()
	results := rt.gatherPartials(ctx, name, homes, from)
	scatterSpan(debug, results)
	out := gatherOutcome{p: len(results)}
	frames := make([]partFrame, len(results))
	for i, res := range results {
		frames[i] = res.frame
		if res.err != nil && out.firstErr == nil {
			out.firstErr = res.err
		}
	}
	start := time.Now()
	next, red := from.reduce(gen, frames, debug != nil)
	elapsed := time.Since(start)
	rt.mergeSecs.With(red.kind).Observe(elapsed.Seconds())
	debug.Stage("merge ("+red.kind+")", elapsed)
	m.pc.install(from, next)
	out.count, out.sumVersion, out.live = red.count, red.sumVersion, red.live
	return out
}

// gatherMerged answers one partitioned reduction, from the pinned count
// when the graph is unchanged since the last all-live gather — a pure
// metadata check, no shard traffic — and by a delta-synced gather
// otherwise.
func (rt *Router) gatherMerged(ctx context.Context, name string, m *graphMeta, homes []string) gatherOutcome {
	p := m.partitions
	if count, sumVersion, ok := m.pc.merged(p); ok {
		rt.partialHits.With("merged").Inc()
		return gatherOutcome{count: count, sumVersion: sumVersion, live: p, p: p, fromCache: true}
	}
	return rt.gather(ctx, name, m, homes, nil)
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "…"
	}
	return string(b)
}

// scatterSpan records the scatter-gather breakdown on a trace (shown
// under ?debug=true).
func scatterSpan(root *obsv.Span, results []partialResult) {
	if root == nil {
		return
	}
	sp := root.Child("scatter")
	for _, res := range results {
		name := fmt.Sprintf("partial[%d] %s", res.part, res.shard)
		if res.frame.kind != "" {
			name += " (" + res.frame.kind + ")"
		}
		if res.err != nil {
			name += " (failed)"
		}
		sp.Stage(name, res.elapsed)
	}
	sp.End()
}

// partitionedCount answers count (asEstimate=false) or estimate
// (asEstimate=true) for a partitioned graph. With every partition
// live the answer is exact either way; with L < P live, count
// degrades to the partition-sampling estimate (X-Degraded:
// partitions) instead of failing, and estimate reports the same
// number as a first-class approximate answer.
//
// The fast path: concurrent requests coalesce onto one gather per
// (graph, cache generation), and an unchanged graph answers straight
// from the merged pin (X-Cache: merged) without touching a shard.
// ?debug=true bypasses both — its purpose is to trace a real scatter.
func (rt *Router) partitionedCount(w http.ResponseWriter, r *http.Request, name string, m *graphMeta, asEstimate bool) {
	p := m.partitions
	ring := rt.currentRing()
	homes := rt.partHomes(ring, name, p)
	if homes == nil {
		rt.writeErr(w, http.StatusServiceUnavailable, serveapi.CodeUnavailable, "no shards configured", 1000)
		return
	}
	debug := r.URL.Query().Get("debug") == "true"
	start := time.Now()

	var out gatherOutcome
	var tr *obsv.Trace
	if debug {
		tr = obsv.NewTrace("request")
		out = rt.gather(r.Context(), name, m, homes, tr.Root())
	} else {
		// The gather outlives its leader's request context: a client
		// that gives up must not fail the waiters it coalesced with.
		// PartialTimeout still bounds every shard fetch.
		gctx := context.WithoutCancel(r.Context())
		key := fmt.Sprintf("%s|g%d", name, m.pc.generation())
		var joined bool
		out, joined = rt.flights.Do(key, func() gatherOutcome {
			return rt.gatherMerged(gctx, name, m, homes)
		})
		if joined {
			rt.coalesced.With().Inc()
		}
	}
	elapsed := time.Since(start).Milliseconds()

	if out.live == 0 {
		rt.writeErr(w, http.StatusServiceUnavailable, serveapi.CodeUnavailable,
			fmt.Sprintf("all %d partitions unreachable: %v", p, out.firstErr), 1000)
		return
	}
	if out.fromCache {
		w.Header().Set("X-Cache", "merged")
	}

	if out.live == p && !asEstimate {
		resp := &serveapi.CountResponse{
			ResultMeta: serveapi.ResultMeta{
				Graph:      name,
				Version:    out.sumVersion,
				Partitions: p,
			},
			Butterflies: out.count,
			ElapsedMS:   elapsed,
		}
		if out.fromCache {
			resp.Cache = "merged"
		}
		if debug {
			resp.Trace = serve.SpanToAPI(tr.Snapshot())
		}
		rt.writeJSON(w, http.StatusOK, resp)
		return
	}

	scale := float64(p) / float64(out.live)
	resp := &serveapi.EstimateResponse{
		ResultMeta: serveapi.ResultMeta{
			Graph:      name,
			Version:    out.sumVersion,
			Degraded:   out.live < p,
			Partitions: p,
		},
		Strategy:       "partitions",
		Estimate:       float64(out.count) * scale * scale,
		PartitionsLive: out.live,
		ElapsedMS:      elapsed,
	}
	if out.fromCache {
		resp.Cache = "merged"
	}
	if debug {
		resp.Trace = serve.SpanToAPI(tr.Snapshot())
	}
	if out.live < p {
		rt.degraded.With().Inc()
		w.Header().Set("X-Degraded", "partitions")
	}
	rt.writeJSON(w, http.StatusOK, resp)
}

// partPath is the shard path of partition i of a P-way graph.
func partPath(name string, i, p int) string {
	return "/v1/graphs/" + url.PathEscape(partName(name, i, p))
}

// foldParts merges partition infos into their logical graph's entry:
// versions, edges and partition-local butterflies sum, the dimensions
// (every partition carries the full ones) take the maximum, and the
// density follows from the sums.
func foldParts(name string, p int, parts []serveapi.GraphInfo) serveapi.GraphInfo {
	out := serveapi.GraphInfo{Name: name, Partitions: p}
	for _, gi := range parts {
		out.Version += gi.Version
		out.NumEdges += gi.NumEdges
		out.Butterflies += gi.Butterflies
		out.NumV1 = max(out.NumV1, gi.NumV1)
		out.NumV2 = max(out.NumV2, gi.NumV2)
		out.State = cmp.Or(out.State, gi.State)
	}
	if out.NumV1 > 0 && out.NumV2 > 0 {
		out.Density = float64(out.NumEdges) / (float64(out.NumV1) * float64(out.NumV2))
	}
	return out
}

// partInfos decodes the GraphInfo of each reply that carries one; the
// others are skipped.
func partInfos(outs []reply) []serveapi.GraphInfo {
	var infos []serveapi.GraphInfo
	for _, o := range outs {
		var gi serveapi.GraphInfo
		if o.err == nil && json.Unmarshal(o.sr.body, &gi) == nil {
			infos = append(infos, gi)
		}
	}
	return infos
}

// partitionedRegister materializes the requested graph as a single
// node would (serve.LoadRequestGraph; path loading is refused), splits
// its edges by V1-hash into P partition graphs, registers each on its
// home shard with the graph's full dimensions (shared id space — that
// is what makes the partials mergeable without relabeling), and
// answers with the folded logical info, Butterflies computed exactly
// by an immediate scatter-gather — which doubles as an end-to-end
// check that the partition pipeline works before the client sees 201.
func (rt *Router) partitionedRegister(w http.ResponseWriter, r *http.Request, req *serveapi.RegisterRequest) {
	p := req.Partitions
	if p > 256 {
		rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument,
			fmt.Sprintf("partitions=%d exceeds the limit of 256", p), 0)
		return
	}
	if req.Path != "" {
		rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument,
			"path loading is not supported for partitioned registration (the router has no shard filesystem); use dataset or inline edges", 0)
		return
	}
	g, err := serve.LoadRequestGraph(req, false)
	if err != nil {
		rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument, err.Error(), 0)
		return
	}

	ring := rt.currentRing()
	homes := rt.partHomes(ring, req.Name, p)
	if homes == nil {
		rt.writeErr(w, http.StatusServiceUnavailable, serveapi.CodeUnavailable, "no shards configured", 1000)
		return
	}
	split := make([][][2]int, p)
	for _, e := range g.Edges() {
		i := partOf(e[0], p)
		split[i] = append(split[i], e)
	}

	outs := fanOut(p, func(i int) reply {
		body, _ := json.Marshal(&serveapi.RegisterRequest{
			Name:    partName(req.Name, i, p),
			Replace: true, // idempotent re-registration after a failed attempt
			M:       g.NumV1(),
			N:       g.NumV2(),
			Edges:   split[i],
		})
		sr, err := rt.call(r.Context(), homes[i], http.MethodPost, "/v1/graphs", tenantHeaders(r), body)
		return reply{sr, err}
	})
	failed := slices.IndexFunc(outs, func(o reply) bool { return o.err != nil })
	if failed >= 0 {
		// Best-effort cleanup so a retry is not blocked by
		// half-registered partitions.
		fanOut(p, func(i int) error {
			if outs[i].err != nil {
				return nil
			}
			_, err := rt.call(r.Context(), homes[i], http.MethodDelete, partPath(req.Name, i, p), nil, nil)
			return err
		})
	}
	// The partitions were replaced (or removed again) whatever the
	// outcome: nothing pinned from the previous incarnation may answer.
	if m := rt.metaOf(req.Name); m != nil {
		m.pc.clear()
	}
	if failed >= 0 {
		rt.writeErr(w, http.StatusServiceUnavailable, serveapi.CodeUnavailable,
			fmt.Sprintf("registering partition %d failed: %v", failed, outs[failed].err), 1000)
		return
	}
	m := rt.ensureMeta(req.Name, p, g.NumV1(), g.NumV2())

	out := rt.gather(r.Context(), req.Name, m, homes, nil)
	// The pins stay for delta revalidation, but the first count still
	// scatters: it is what reports a partition lost since registration.
	m.pc.invalidate()
	info := foldParts(req.Name, p, partInfos(outs))
	info.Butterflies = 0
	if out.live == p {
		info.Butterflies = out.count
	}
	rt.writeJSON(w, http.StatusCreated, &info)
}

// partitionedInfo folds the partition infos into one logical entry;
// Butterflies comes from a fresh scatter-gather, exact when every
// partition answers (the shard-side partial cache makes repeats
// cheap), and omitted (0) otherwise.
func (rt *Router) partitionedInfo(w http.ResponseWriter, r *http.Request, name string, m *graphMeta) {
	p := m.partitions
	homes := rt.partHomes(rt.currentRing(), name, p)
	infos := partInfos(fanOut(p, func(i int) reply {
		sr, err := rt.call(r.Context(), homes[i], http.MethodGet, partPath(name, i, p), tenantHeaders(r), nil)
		return reply{sr, err}
	}))
	if len(infos) == 0 {
		rt.writeErr(w, http.StatusServiceUnavailable, serveapi.CodeUnavailable,
			fmt.Sprintf("all %d partitions unreachable", p), 1000)
		return
	}
	merged := foldParts(name, p, infos)
	merged.Butterflies = 0
	if out := rt.gatherMerged(r.Context(), name, m, homes); out.live == p {
		merged.Butterflies = out.count
	}
	rt.writeJSON(w, http.StatusOK, &merged)
}

// partitionedDrop deletes every partition graph concurrently. Partial
// failure leaves the remaining partitions in place and the meta intact
// so a retry can finish the job; the pins go either way.
func (rt *Router) partitionedDrop(w http.ResponseWriter, r *http.Request, name string, m *graphMeta) {
	p := m.partitions
	homes := rt.partHomes(rt.currentRing(), name, p)
	errs := fanOut(p, func(i int) error {
		// 404 is success for a drop retry: the partition is already gone.
		_, err := rt.call(r.Context(), homes[i], http.MethodDelete, partPath(name, i, p), tenantHeaders(r), nil, http.StatusNotFound)
		return err
	})
	m.pc.clear()
	var failed []string
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Sprintf("partition %d on %s: %v", i, homes[i], err))
		}
	}
	if len(failed) > 0 {
		rt.writeErr(w, http.StatusServiceUnavailable, serveapi.CodeUnavailable,
			fmt.Sprintf("drop incomplete: %v", failed), 1000)
		return
	}
	rt.forgetMeta(name)
	w.WriteHeader(http.StatusNoContent)
}

// partitionedMutate checks the body as a single node does, the batch
// against the graph's dimensions included, so a batch a shard would
// refuse is refused whole before any partition sees it. It then splits
// the batch by the same V1 hash that split the graph and applies the
// pieces to their partitions concurrently, each carrying the body's
// tenancy fields. The partitions the batch does not touch are asked
// for their edge counts in the same fan-out. Created/Destroyed in the
// response sum the partition-local deltas (butterflies whose both
// centers share a partition); Count is the exact new total from a
// fresh scatter-gather; Edges sums every partition's edges.
//
// A partition that fails past the check (a shard down, a log refusing
// the record) does not stop the others: the answer relays the
// lowest-index failure, and the partitions that succeeded stay
// applied. A retry is idempotent per edge.
func (rt *Router) partitionedMutate(w http.ResponseWriter, r *http.Request, name string, m *graphMeta, body []byte) {
	var req serveapi.MutateRequest
	err := serve.DecodeBody(bytes.NewReader(body), &req)
	if err == nil {
		err = serve.CheckPriority(req.Priority)
	}
	if err == nil {
		err = serve.CheckBatch(req.Inserts, req.Deletes, m.v1, m.v2)
	}
	if err != nil {
		rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument, err.Error(), 0)
		return
	}
	p := m.partitions
	homes := rt.partHomes(rt.currentRing(), name, p)
	ins := make([][][2]int, p)
	dels := make([][][2]int, p)
	for _, e := range req.Inserts {
		i := partOf(e[0], p)
		ins[i] = append(ins[i], e)
	}
	for _, e := range req.Deletes {
		i := partOf(e[0], p)
		dels[i] = append(dels[i], e)
	}
	touched := func(i int) bool { return len(ins[i]) > 0 || len(dels[i]) > 0 }

	start := time.Now()
	outs := fanOut(p, func(i int) reply {
		if !touched(i) {
			sr, err := rt.call(r.Context(), homes[i], http.MethodGet, partPath(name, i, p), tenantHeaders(r), nil)
			return reply{sr, err}
		}
		pbody, _ := json.Marshal(&serveapi.MutateRequest{Inserts: ins[i], Deletes: dels[i], Tenant: req.Tenant, Priority: req.Priority})
		sr, err := rt.call(r.Context(), homes[i], http.MethodPost, partPath(name, i, p)+"/mutate", tenantHeaders(r), pbody)
		return reply{sr, err}
	})
	// Partitions may have changed whatever the outcome: start a new
	// cache generation (the pinned count stops answering; the pins stay
	// for delta revalidation).
	m.pc.invalidate()

	total := serveapi.MutateResponse{Graph: name}
	for i, o := range outs {
		switch {
		case !touched(i):
			var gi serveapi.GraphInfo
			if o.err == nil && json.Unmarshal(o.sr.body, &gi) == nil {
				total.Edges += gi.NumEdges
			}
			continue
		case o.err != nil:
			rt.writeFailure(w, o.err, fmt.Sprintf("partition %d on %s: %v (some partitions may be applied; retry is idempotent per edge)", i, homes[i], o.err))
			return
		}
		var mr serveapi.MutateResponse
		if json.Unmarshal(o.sr.body, &mr) == nil {
			total.Inserted += mr.Inserted
			total.Deleted += mr.Deleted
			total.Created += mr.Created
			total.Destroyed += mr.Destroyed
			total.Edges += mr.Edges
		}
	}

	// Re-reduce through the flight group, so counts arriving during
	// the post-mutation gather share it.
	gctx := context.WithoutCancel(r.Context())
	out, _ := rt.flights.Do(fmt.Sprintf("%s|g%d", name, m.pc.generation()), func() gatherOutcome {
		return rt.gatherMerged(gctx, name, m, homes)
	})
	total.Version = out.sumVersion
	if out.live == p {
		total.Count = out.count
	}
	total.ElapsedMS = time.Since(start).Milliseconds()
	rt.writeJSON(w, http.StatusOK, &total)
}
