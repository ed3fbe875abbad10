package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"butterfly"
	"butterfly/client"
	"butterfly/internal/serve"
	"butterfly/serveapi"
)

// k66 is the complete bipartite graph K_{6,6}: C(6,2)² = 225
// butterflies, 25 of them through any one edge.
func k66(t *testing.T) *butterfly.Graph {
	t.Helper()
	var edges [][2]int
	for u := 0; u < 6; u++ {
		for v := 0; v < 6; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	return mustGen(t)(butterfly.FromEdges(6, 6, edges))
}

// post sends body to base+path and returns the status, the error code
// of an error answer, and the raw body.
func post(t *testing.T, base, path, body string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env serveapi.ErrorEnvelope
	_ = json.Unmarshal(b, &env)
	return resp.StatusCode, env.Error.Code, b
}

// routerCount counts a graph through the router and returns the
// status, the X-Cache header and the butterflies of an exact answer.
func routerCount(t *testing.T, base, name, query string) (int, string, int64) {
	t.Helper()
	resp, err := http.Post(base+"/v1/graphs/"+name+"/count"+query, "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr serveapi.CountResponse
	_ = json.NewDecoder(resp.Body).Decode(&cr)
	return resp.StatusCode, resp.Header.Get("X-Cache"), cr.Butterflies
}

// pinMerged counts a graph twice, so the second answer comes from the
// router's merged pin.
func pinMerged(t *testing.T, base, name string, want int64) {
	t.Helper()
	routerCount(t, base, name, "")
	if status, cache, n := routerCount(t, base, name, ""); status != http.StatusOK || cache != "merged" || n != want {
		t.Fatalf("second count = %d %q %d, want 200 merged %d", status, cache, n, want)
	}
}

func wantAPIError(t *testing.T, err error, status int, what string) {
	t.Helper()
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != status {
		t.Fatalf("%s: err = %v, want status %d", what, err, status)
	}
}

// TestFailedPartitionedMutateDropsMergedPin: a batch with an edge out
// of range is refused whole, on a single node and through the router,
// before any partition applies its piece, so the count and the merged
// pin stand. A mutate that fails in the fan-out itself (the shard of a
// touched partition down) may have applied elsewhere, so the next
// count must not answer the pre-mutation merged pin.
func TestFailedPartitionedMutateDropsMergedPin(t *testing.T) {
	shards := spawnShards(t, 2)
	rt, rts := newRouter(t, urlsOf(shards), Config{})
	registerInline(t, client.New(rts.URL), "k", k66(t), 2)
	pinMerged(t, rts.URL, "k", 225)
	single := serve.New(serve.Config{})
	sts := httptest.NewServer(single)
	t.Cleanup(sts.Close)
	t.Cleanup(single.Close)
	registerInline(t, client.New(sts.URL), "k", k66(t), 1)

	if partOf(0, 2) != 0 || partOf(1, 2) != 1 {
		t.Fatal("test assumes V1 vertex 0 in partition 0 and vertex 1 in partition 1")
	}
	// Partition 0 gets the delete (0,0), partition 1 the out-of-range insert.
	bad := serveapi.MutateRequest{Deletes: [][2]int{{0, 0}}, Inserts: [][2]int{{1, 99}}}
	for _, base := range []string{sts.URL, rts.URL} {
		_, err := client.New(base).Mutate(context.Background(), "k", bad)
		wantAPIError(t, err, http.StatusBadRequest, "mutate with an out-of-range insert")
		for _, q := range []string{"", "?debug=true"} {
			if status, _, n := routerCount(t, base, "k", q); status != http.StatusOK || n != 225 {
				t.Errorf("%s: count%s after the refused mutate = %d %d, want 200 225", base, q, status, n)
			}
		}
	}
	if status, cache, n := routerCount(t, rts.URL, "k", ""); status != http.StatusOK || cache != "merged" || n != 225 {
		t.Errorf("count after the refused mutate = %d %q %d, want 200 merged 225", status, cache, n)
	}

	homes := rt.partHomes(rt.currentRing(), "k", 2)
	for _, ts := range shards {
		if ts.URL == homes[1] {
			ts.Close()
		}
	}
	_, err := client.New(rts.URL).Mutate(context.Background(), "k", serveapi.MutateRequest{Deletes: [][2]int{{0, 0}, {1, 0}}})
	if err == nil {
		t.Fatal("mutate with partition 1's shard down succeeded")
	}
	for _, q := range []string{"", "?debug=true"} {
		if _, cache, _ := routerCount(t, rts.URL, "k", q); cache == "merged" {
			t.Errorf("count%s after the failed mutate answered the pre-mutation merged pin", q)
		}
	}
}

// TestFailedPartitionedRegisterDropsMergedPin: a re-registration that
// fails on one shard has replaced (and cleaned up) the partition on the
// other, so the next count must not answer the old merged pin.
func TestFailedPartitionedRegisterDropsMergedPin(t *testing.T) {
	shards := spawnShards(t, 2)
	_, rts := newRouter(t, urlsOf(shards), Config{})
	c := client.New(rts.URL)
	g := k66(t)
	registerInline(t, c, "k", g, 2)
	pinMerged(t, rts.URL, "k", 225)

	shards[0].Close()
	_, err := c.Register(context.Background(), serveapi.RegisterRequest{Name: "k", M: 6, N: 6, Edges: g.Edges(), Partitions: 2, Replace: true})
	wantAPIError(t, err, http.StatusServiceUnavailable, "re-register with a shard down")

	if status, cache, n := routerCount(t, rts.URL, "k", ""); status != http.StatusServiceUnavailable {
		t.Errorf("count after the failed re-registration = %d %q %d, want 503 (no partition left)", status, cache, n)
	}
}

// TestPartitionedTenancy: the router checks a partitioned body's
// priority as a shard does, and a partitioned mutate carries the
// body's tenant to the shards that apply it.
func TestPartitionedTenancy(t *testing.T) {
	tcfg := serve.TenantsConfig{Tenants: map[string]serve.TenantSpec{"acme": {Weight: 2}}}
	shards := make([]*httptest.Server, 2)
	for i := range shards {
		s := serve.New(serve.Config{Role: "shard", Tenants: tcfg})
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		t.Cleanup(s.Close)
		shards[i] = ts
	}
	_, rts := newRouter(t, urlsOf(shards), Config{})
	registerInline(t, client.New(rts.URL), "k", k66(t), 2)

	for _, path := range []string{"/count", "/estimate", "/mutate"} {
		if status, code, _ := post(t, rts.URL, "/v1/graphs/k"+path, `{"priority":"urgent"}`); status != http.StatusBadRequest || code != serveapi.CodeInvalidArgument {
			t.Errorf("%s with an unknown priority: %d %q, want 400 %s", path, status, code, serveapi.CodeInvalidArgument)
		}
	}

	// (0,0) lives in partition 0 and (1,0) in partition 1.
	if status, _, b := post(t, rts.URL, "/v1/graphs/k/mutate", `{"deletes":[[0,0],[1,0]],"tenant":"acme","priority":"batch"}`); status != http.StatusOK {
		t.Fatalf("mutate as acme: %d %s", status, b)
	}
	for _, ts := range shards {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(b), `bfserved_tenant_seconds_count{tenant="acme"}`) {
			t.Errorf("shard %s charged no request to the body tenant acme", ts.URL)
		}
	}
}

// TestRouterRejectsBodiesLikeSingleNode sends each body to a single
// node, to the router for an unpartitioned graph and to the router for
// a partitioned one; all three must answer the same status and code.
// In paths, {G} is the graph; in bodies, {P} is empty or, for the
// partitioned target, a partitions field.
func TestRouterRejectsBodiesLikeSingleNode(t *testing.T) {
	g := k66(t)
	single := serve.New(serve.Config{})
	sts := httptest.NewServer(single)
	t.Cleanup(sts.Close)
	t.Cleanup(single.Close)
	registerInline(t, client.New(sts.URL), "g", g, 1)

	shards := spawnShards(t, 2)
	_, rts := newRouter(t, urlsOf(shards), Config{})
	rc := client.New(rts.URL)
	registerInline(t, rc, "g", g, 1)
	registerInline(t, rc, "pg", g, 2)

	type target struct{ name, base, graph, partitions string }
	targets := []target{
		{"single node", sts.URL, "g", ""},
		{"router, unpartitioned", rts.URL, "g", ""},
		{"router, partitioned", rts.URL, "pg", `,"partitions":2`},
	}
	for _, tc := range []struct {
		path, body string
		want       int
		routerOnly bool // a single node has no such route
	}{
		{"/v1/graphs/{G}/count", `{"priority":"batch"}`, http.StatusOK, false},
		{"/v1/graphs/{G}/count", `{"priority":"urgent"}`, http.StatusBadRequest, false},
		{"/v1/graphs/{G}/count", `{} x`, http.StatusBadRequest, false},
		{"/v1/graphs/{G}/count", `{"hub":"always","order":"degree-asc"}`, http.StatusOK, false},
		{"/v1/graphs/{G}/count", `{"hub":"sometimes"}`, http.StatusBadRequest, false},
		{"/v1/graphs/{G}/estimate", `{"priority":"urgent"}`, http.StatusBadRequest, false},
		{"/v1/graphs/{G}/mutate", `{"inserts":[[0,0]],"tenant":"t","priority":"batch"}`, http.StatusOK, false},
		{"/v1/graphs/{G}/mutate", `{"priority":"urgent"}`, http.StatusBadRequest, false},
		{"/v1/graphs/{G}/mutate", `{"insert":[[0,0]]}`, http.StatusBadRequest, false},
		{"/v1/graphs/{G}/mutate", `{"inserts":[[0,0]]} {}`, http.StatusBadRequest, false},
		{"/v1/graphs/{G}/mutate", `{"inserts":[[2]]}`, http.StatusBadRequest, false},
		{"/v1/graphs/{G}/mutate", `{"inserts":[[1,1,2]]}`, http.StatusBadRequest, false},
		{"/v1/graphs/{G}/mutate", `{"deletes":[[null,0]]}`, http.StatusBadRequest, false},
		{"/v1/graphs/{G}/mutate", `{"deletes":[null]}`, http.StatusBadRequest, false},
		{"/v1/graphs", `{"name":"r"{P},"m":2,"n":2,"edges":[[0,0]],"bogus":1}`, http.StatusBadRequest, false},
		{"/v1/graphs", `{"name":"r"{P},"dataset":"github","m":2,"n":2,"edges":[[0,0]]}`, http.StatusBadRequest, false},
		{"/v1/graphs", `{"name":"r"{P},"m":2,"n":2,"edges":[[0,0]]} {}`, http.StatusBadRequest, false},
		{"/v1/graphs", `{"name":"r"{P},"m":2,"n":2,"edges":[[1]]}`, http.StatusBadRequest, false},
		{"/v1/graphs", `{"name":"r"{P},"m":2,"n":2,"edges":[[1,1,1]]}`, http.StatusBadRequest, false},
		{"/v1/graphs", `{"name":"r"{P},"m":2,"n":2,"edges":[[null,0]]}`, http.StatusBadRequest, false},
		{"/v1/ingest", `{"name":"i","m":2,"n":2,"bogus":1}`, http.StatusBadRequest, false},
		{"/v1/admin/rebalance", `{"shard":["http://127.0.0.1:1"]}`, http.StatusBadRequest, true},
		{"/v1/admin/rebalance", `{} {}`, http.StatusBadRequest, true},
	} {
		for _, tg := range targets {
			if tc.routerOnly && tg.base == sts.URL {
				continue
			}
			path := strings.ReplaceAll(tc.path, "{G}", tg.graph)
			body := strings.ReplaceAll(tc.body, "{P}", tg.partitions)
			status, code, b := post(t, tg.base, path, body)
			if status != tc.want || (tc.want == http.StatusBadRequest && code != serveapi.CodeInvalidArgument) {
				t.Errorf("%s: POST %s %s = %d %q (%s), want %d", tg.name, path, body, status, code, strings.TrimSpace(string(b)), tc.want)
			}
		}
	}
	// The refused bodies changed nothing: the graph still holds K_{6,6}
	// and no graph r was registered.
	for _, tg := range targets {
		if status, _, n := routerCount(t, tg.base, tg.graph, ""); status != http.StatusOK || n != 225 {
			t.Errorf("%s: count after the refused bodies = %d %d, want 200 225", tg.name, status, n)
		}
		resp, err := http.Get(tg.base + "/v1/graphs/r")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: GET graph r after the refused registrations = %d, want 404", tg.name, resp.StatusCode)
		}
	}
}
