package cluster

// Shard membership changes. Refresh rebuilds the router's routing
// metadata from what the shards actually hold; handleRebalance
// applies a new shard set by re-placing every shard-resident graph
// under the new ring, shipping each moved graph's newest published
// snapshot (export → adopt at the carried version → delete) so a
// join/leave needs no recount and no quiesce.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"time"

	"butterfly/internal/serve"
	"butterfly/serveapi"
)

// inventory lists every shard's graphs with one concurrent GET
// /v1/graphs scatter, in shard order. Unreachable shards are reported
// in errs and list nothing (their graphs stay where they are).
func (rt *Router) inventory(ctx context.Context, shards []string, hdr http.Header) ([][]serveapi.GraphInfo, []string) {
	outs := fanOut(len(shards), func(i int) reply {
		sr, err := rt.call(ctx, shards[i], http.MethodGet, "/v1/graphs", hdr, nil)
		return reply{sr, err}
	})
	lists := make([][]serveapi.GraphInfo, len(shards))
	var errs []string
	for i, o := range outs {
		var gl serveapi.GraphList
		if o.err == nil {
			o.err = json.Unmarshal(o.sr.body, &gl)
		}
		if o.err != nil {
			errs = append(errs, fmt.Sprintf("list %s: %v", shards[i], o.err))
		}
		lists[i] = gl.Graphs
	}
	return lists, errs
}

// holdings maps each movable shard-resident graph name to the shards
// holding it; loading ingests are not movable.
func holdings(shards []string, lists [][]serveapi.GraphInfo) map[string][]string {
	held := map[string][]string{}
	for i, list := range lists {
		for _, gi := range list {
			if gi.State == "" {
				held[gi.Name] = append(held[gi.Name], shards[i])
			}
		}
	}
	return held
}

// Refresh rebuilds the router's graph metadata from the shards: every
// partition marker found on any shard re-registers its logical graph
// as partitioned, every other graph as plain. Call it after router
// restart (the routing state is derivable, not durable) — bfserved
// does on startup.
func (rt *Router) Refresh(ctx context.Context) error {
	nodes := rt.currentRing().Nodes()
	lists, errs := rt.inventory(ctx, nodes, nil)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, list := range lists {
		for _, gi := range list {
			if gi.State != "" {
				continue // a loading ingest is not movable yet
			}
			logical, _, p, ok := splitPartName(gi.Name)
			if !ok {
				logical, p = gi.Name, 0
			}
			rt.ensureMetaLocked(logical, p, gi.NumV1, gi.NumV2)
		}
	}
	// Membership (or shard content) may have changed under the pinned
	// partials — rebalance moves partitions, adopts mint new partial-
	// log epochs. Drop every pin; the next gather re-bases.
	for _, m := range rt.graphs {
		m.pc.clear()
	}
	if len(errs) > 0 {
		return fmt.Errorf("refresh incomplete: %v", errs)
	}
	return nil
}

// desiredPlacement computes where a shard-resident graph should live
// under a ring: partition graphs at their partition home, plain
// graphs at their first Replicas successors.
func (rt *Router) desiredPlacement(ring *Ring, name string) []string {
	if logical, i, p, ok := splitPartName(name); ok {
		homes := rt.partHomes(ring, logical, p)
		if homes == nil {
			return nil
		}
		return []string{homes[i]}
	}
	return ring.Successors(name, rt.cfg.Replicas)
}

// moveGraph ships one shard-resident graph from src to dst at its
// current version: export the published snapshot, adopt it remotely
// (the destination recounts and WAL-logs it), report the move.
func (rt *Router) moveGraph(ctx context.Context, name, src, dst string) (serveapi.MovedGraph, error) {
	mv := serveapi.MovedGraph{Graph: name, From: src, To: dst}
	sr, err := rt.call(ctx, src, http.MethodGet, "/v1/internal/export/"+url.PathEscape(name), nil, nil)
	if err != nil {
		return mv, fmt.Errorf("export: %w", err)
	}
	var exp serveapi.ExportResponse
	if err := json.Unmarshal(sr.body, &exp); err != nil {
		return mv, fmt.Errorf("export: %v", err)
	}
	adopt := serveapi.AdoptRequest{
		Name: exp.Name, M: exp.M, N: exp.N,
		Version: exp.Version, Count: exp.Count, Edges: exp.Edges,
		Replace: true,
	}
	body, _ := json.Marshal(&adopt)
	if _, err := rt.call(ctx, dst, http.MethodPost, "/v1/internal/adopt", nil, body); err != nil {
		return mv, fmt.Errorf("adopt: %w", err)
	}
	mv.Version = exp.Version
	mv.Edges = int64(len(exp.Edges))
	return mv, nil
}

// handleRebalance applies a membership change: swap in the shard set
// from the request (or keep the current one), re-place every graph,
// copy what is missing from a current holder, then delete copies that
// no longer belong. Copy-before-delete ordering means a failure
// mid-rebalance leaves extra copies, never missing ones; re-running
// the rebalance converges.
func (rt *Router) handleRebalance(w http.ResponseWriter, r *http.Request) {
	var req serveapi.RebalanceRequest
	body, err := readBody(r)
	if err == nil {
		err = serve.DecodeBody(bytes.NewReader(body), &req)
	}
	if err != nil {
		rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument, err.Error(), 0)
		return
	}
	start := time.Now()
	oldRing := rt.currentRing()
	newShards := req.Shards
	if len(newShards) == 0 {
		newShards = oldRing.Nodes()
	}
	newRing := NewRing(newShards, rt.cfg.VNodes)
	if newRing.Len() == 0 {
		rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument, "shard set must not be empty", 0)
		return
	}

	// Inventory across the union of old and new membership: a leaving
	// shard still holds graphs that must ship out.
	union := map[string]bool{}
	for _, s := range oldRing.Nodes() {
		union[s] = true
	}
	for _, s := range newRing.Nodes() {
		union[s] = true
	}
	all := make([]string, 0, len(union))
	for s := range union {
		all = append(all, s)
	}
	sort.Strings(all)
	lists, errs := rt.inventory(r.Context(), all, nil)
	held := holdings(all, lists)

	resp := serveapi.RebalanceResponse{Shards: newRing.Len(), Moved: []serveapi.MovedGraph{}, Errors: errs}
	names := make([]string, 0, len(held))
	for n := range held {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		holders := held[name]
		want := rt.desiredPlacement(newRing, name)
		if want == nil {
			continue
		}
		isHolder := func(s string) bool {
			for _, h := range holders {
				if h == s {
					return true
				}
			}
			return false
		}
		wanted := func(s string) bool {
			for _, h := range want {
				if h == s {
					return true
				}
			}
			return false
		}
		copiedAll := true
		for _, dst := range want {
			if isHolder(dst) {
				continue
			}
			mv, err := rt.moveGraph(r.Context(), name, holders[0], dst)
			if err != nil {
				resp.Errors = append(resp.Errors, fmt.Sprintf("%s → %s: %v", name, dst, err))
				copiedAll = false
				continue
			}
			rt.rebalMoves.With().Inc()
			resp.Moved = append(resp.Moved, mv)
		}
		if !copiedAll {
			continue // keep old copies until every new home has one
		}
		for _, src := range holders {
			if wanted(src) {
				continue
			}
			if _, err := rt.call(r.Context(), src, http.MethodDelete, "/v1/graphs/"+url.PathEscape(name), nil, nil, http.StatusNotFound); err != nil {
				resp.Errors = append(resp.Errors, fmt.Sprintf("delete %s on %s: %v", name, src, err))
			}
		}
	}

	rt.mu.Lock()
	rt.ring = newRing
	rt.mu.Unlock()
	if err := rt.Refresh(r.Context()); err != nil {
		resp.Errors = append(resp.Errors, err.Error())
	}
	resp.ElapsedMS = time.Since(start).Milliseconds()
	rt.writeJSON(w, http.StatusOK, &resp)
}
