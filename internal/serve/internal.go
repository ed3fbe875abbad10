package serve

// Shard-side cluster endpoints: the wedge-partial export that powers
// scatter-gather cross-shard counting, the snapshot export/adopt pair
// that powers rebalancing hand-off, and the replica version-floor
// check that gives routed replica reads read-your-writes semantics.
// These live under /v1/internal/ — always mounted, but addressed to
// the routing tier rather than end users (see docs/CLUSTER.md).

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"butterfly"
	"butterfly/serveapi"
)

// MinVersionHeader is the read floor a router attaches to replica
// reads: a shard whose published snapshot is older answers 503
// replica_behind so the router can fall to a fresher replica.
const MinVersionHeader = "X-Bf-Min-Version"

// VersionHeader carries the snapshot version of a binary response
// (the partial export, whose body has no JSON envelope to put it in).
const VersionHeader = "X-Bf-Version"

// PartialEpochHeader carries the partial log's activation token on
// partial responses. A router pins it with the partials and echoes it
// in `?epoch=`, so a graph re-registered at a coincidentally matching
// version can never satisfy a delta request from the wrong history.
const PartialEpochHeader = "X-Bf-Partial-Epoch"

// PartialKindHeader labels a partial response body "full" or "delta"
// for human debugging; machine clients sniff the body magic instead.
const PartialKindHeader = "X-Bf-Partial"

// replicaBehindError reports a read floor this replica has not caught
// up to; answers 503 with code replica_behind.
type replicaBehindError struct {
	name       string
	have, want uint64
}

func (e replicaBehindError) Error() string {
	return fmt.Sprintf("replica has %q at v%d, read requires ≥ v%d", e.name, e.have, e.want)
}

// checkFloor enforces the request's X-Bf-Min-Version floor against
// the snapshot about to serve it. A zero or absent floor always
// passes; a malformed floor is ignored (the header is router-internal
// and a router never sends garbage — failing open keeps manual curl
// debugging pleasant).
func checkFloor(r *http.Request, snap *Snapshot) error {
	h := r.Header.Get(MinVersionHeader)
	if h == "" {
		return nil
	}
	floor, err := strconv.ParseUint(h, 10, 64)
	if err != nil || floor == 0 {
		return nil
	}
	if snap.Version < floor {
		return replicaBehindError{name: snap.Name, have: snap.Version, want: floor}
	}
	return nil
}

// handlePartial serves GET /v1/internal/partial/{name}: the graph's
// V1-centered wedge partial map in the binary serveapi format. This
// is the scatter half of cross-shard counting — the router merges the
// partials of every partition and applies Σ C(β, 2).
//
// Two reply shapes. `?since=V&epoch=E` asks for the signed delta from
// version V: when the maintained history (partiallog.go) covers
// (V, current] under epoch E, the composed delta frame is served
// straight from that state — no wedge enumeration, no admission slot.
// Otherwise (history evicted, epoch mismatch, no since) the full map
// is exported: the same wedge work as a local count, so it runs under
// admission control and its encoded body is cached per version — a
// full export also activates delta maintenance so later syncs go by
// delta. The export is sorted by pair key and independent of any
// aggregation mode, so the cache holds one body per version.
func (s *Server) handlePartial(w http.ResponseWriter, r *http.Request) {
	st := stateOf(r)
	root := st.root()
	q := r.URL.Query()

	var since, epoch uint64
	if v := q.Get("since"); v != "" {
		u, err := strconv.ParseUint(v, 10, 64)
		if err != nil || u == 0 {
			s.writeError(w, r, badReqf("invalid since version %q", v))
			return
		}
		since = u
	}
	if v := q.Get("epoch"); v != "" {
		u, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.writeError(w, r, badReqf("invalid epoch %q", v))
			return
		}
		epoch = u
	}

	rsp := root.Child("registry")
	snap, err := s.reg.Get(r.PathValue("name"))
	rsp.End()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if err := checkFloor(r, snap); err != nil {
		s.writeError(w, r, err)
		return
	}

	writeBody := func(body []byte, cache, kind string, version, ep uint64) {
		wsp := root.Child("render")
		w.Header().Set("X-Cache", cache)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set(VersionHeader, strconv.FormatUint(version, 10))
		w.Header().Set(PartialKindHeader, kind)
		if ep != 0 {
			w.Header().Set(PartialEpochHeader, strconv.FormatUint(ep, 10))
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
		wsp.End()
	}

	if since > 0 {
		dsp := root.Child("delta")
		delta, ok := s.reg.PartialDeltaSince(snap.Name, epoch, since, snap.Version)
		dsp.End()
		if ok {
			writeBody(serveapi.EncodePartialDelta(since, snap.Version, delta),
				"none", serveapi.PartialFrameDelta, snap.Version, epoch)
			return
		}
		// History does not reach back to `since`: fall through to the
		// full map, which re-bases the client.
	}

	// Activate delta maintenance and pin the activation snapshot: its
	// version is exactly the log's base, so a client holding this full
	// map can sync every later version by delta.
	esp := root.Child("activate")
	snap, logEpoch, err := s.reg.EnablePartialLog(snap.Name)
	esp.End()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	cacheKey := fmt.Sprintf("%s|%s|v%d|partial", st.api, snap.Name, snap.Version)
	if !st.debug {
		csp := root.Child("cache")
		body, ok := s.cache.get(cacheKey)
		csp.End()
		if ok {
			writeBody(body, "hit", serveapi.PartialFrameFull, snap.Version, logEpoch)
			return
		}
	}

	timeoutMS := 0
	if t := r.URL.Query().Get("timeout_ms"); t != "" {
		if v, err := strconv.Atoi(t); err == nil && v > 0 {
			timeoutMS = v
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(timeoutMS))
	defer cancel()

	asp := root.Child("admission")
	err = s.lim.acquire(ctx)
	asp.End()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	sl := &slot{lim: s.lim}
	defer sl.release()

	ksp := root.Child("kernel")
	s.compute(ctx)
	body, err := runAbandon(ctx, sl, func() ([]byte, error) {
		return serveapi.EncodePartial(snap.Version, snap.Graph.WedgePartials()), nil
	})
	ksp.End()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if !st.debug {
		s.cache.put(cacheKey, body)
	}
	writeBody(body, "miss", serveapi.PartialFrameFull, snap.Version, logEpoch)
}

// handleExport serves GET /v1/internal/export/{name}: the graph's
// full published state for rebalancing hand-off. The snapshot served
// is, under a durable store, exactly the newest bfstore snapshot plus
// the replayed WAL tail — nothing is recomputed to ship a graph.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	sp := stateOf(r).root().Child("registry")
	snap, err := s.reg.Get(r.PathValue("name"))
	sp.End()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if err := checkFloor(r, snap); err != nil {
		s.writeError(w, r, err)
		return
	}
	resp := &serveapi.ExportResponse{
		Name:    snap.Name,
		M:       snap.Graph.NumV1(),
		N:       snap.Graph.NumV2(),
		Version: snap.Version,
		Count:   snap.Count,
		Edges:   snap.Graph.Edges(),
	}
	s.writeOK(w, r, http.StatusOK, resp)
}

// handleAdopt serves POST /v1/internal/adopt: install an exported
// graph at its carried version (rebalance hand-off, replica seeding).
// The recount that seeds the dynamic counter doubles as the integrity
// gate — a carried count the recount contradicts refuses the adopt.
func (s *Server) handleAdopt(w http.ResponseWriter, r *http.Request) {
	root := stateOf(r).root()
	psp := root.Child("parse")
	var req serveapi.AdoptRequest
	if err := decodeBody(r.Body, &req); err != nil {
		psp.End()
		s.writeError(w, r, err)
		return
	}
	if req.Name == "" {
		psp.End()
		s.writeError(w, r, badReqf("name is required"))
		return
	}
	if req.Version == 0 {
		psp.End()
		s.writeError(w, r, badReqf("version must be ≥ 1"))
		return
	}
	psp.End()
	// Adoption recounts the shipped edge set; bound that like any
	// other computation.
	asp := root.Child("admission")
	err := s.lim.acquire(r.Context())
	asp.End()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	defer s.lim.release()
	g, err := butterfly.FromEdges(req.M, req.N, req.Edges)
	if err != nil {
		s.writeError(w, r, badReqf("%v", err))
		return
	}
	rsp := root.Child("registry")
	snap, err := s.reg.AdoptRemote(req.Name, g, req.Version, req.Count, req.Replace)
	rsp.End()
	if err != nil {
		var ex ErrExists
		var de DurabilityError
		if !errors.As(err, &ex) && !errors.As(err, &de) {
			err = badReqf("%v", err)
		}
		s.writeError(w, r, err)
		return
	}
	s.nudgeCheckpoint()
	info := snapInfo(snap)
	s.writeOK(w, r, http.StatusCreated, &info)
}
