package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"

	"butterfly/serveapi"
)

// TestMalformedEstimateCostsNothing: a malformed estimate answers 400
// before admission. It takes no token from its tenant's one-token
// bucket, and it does not wait for the only execution slot, so the
// tenant's next valid count is still admitted.
func TestMalformedEstimateCostsNothing(t *testing.T) {
	s, c := newTestServer(t, Config{MaxInFlight: 1, NoQueue: true, Tenants: TenantsConfig{
		Tenants: map[string]TenantSpec{"free": {}, "one": {Rate: 0.0001, Burst: 1}},
	}})
	base := urlOf(t, c)
	registerK44(t, c)

	// Hold the only execution slot with a count of another tenant.
	gate := make(chan struct{})
	var openGate sync.Once
	release := func() { openGate.Do(func() { close(gate) }) }
	defer release()
	entered := make(chan struct{}, 1)
	s.computeHook = func(ctx context.Context) {
		select {
		case entered <- struct{}{}:
			<-gate
		default:
		}
	}
	held := make(chan int, 1)
	go func() {
		resp, _ := rawDoH(t, "POST", base+"/v1/graphs/k44/count", `{"algorithm":"wedge-hash"}`,
			map[string]string{serveapi.TenantHeader: "free"})
		held <- resp.StatusCode
	}()
	<-entered

	one := map[string]string{serveapi.TenantHeader: "one"}
	for _, body := range []string{
		`{"strategy":"guess"}`,
		`{"samples":-1}`,
		`{"target_rel_err":-0.5}`,
		`{"max_samples":-3}`,
		`{"strategy":"sparsify"}`,
		`{"strategy":"sparsify","p":1.5}`,
		`{"strategy":"sparsify","p":-0.25}`,
	} {
		resp, raw := rawDoH(t, "POST", base+"/v1/graphs/k44/estimate", body, one)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("estimate %s: status %d (%s), want 400", body, resp.StatusCode, raw)
		}
		if det := decodeEnvelope(t, raw); det.Code != serveapi.CodeInvalidArgument {
			t.Fatalf("estimate %s: code %q, want %q", body, det.Code, serveapi.CodeInvalidArgument)
		}
	}
	release()
	if code := <-held; code != http.StatusOK {
		t.Fatalf("slot-holding count: status %d", code)
	}

	resp, raw := rawDoH(t, "POST", base+"/v1/graphs/k44/count", `{}`, one)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid count after malformed estimates: status %d (%s), want 200", resp.StatusCode, raw)
	}
	if st := statFor(t, s.lim, "one"); st.shedQuota != 0 {
		t.Fatalf("tenant one shedQuota = %d, want 0", st.shedQuota)
	}
}

// TestDecodeBodyRejectsTrailingData: a request body is exactly one
// JSON value; anything but whitespace after it is a 400, on the query
// routes and on every other route that decodes a body.
func TestDecodeBodyRejectsTrailingData(t *testing.T) {
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{``, true},
		{`{"top":5}`, true},
		{" {\"top\":5} \n\t", true},
		{`{"top":5} {"top":6}`, false},
		{`{"top":5}garbage`, false},
		{`{"top":5}{"bogus":1}`, false},
		{`{"top":5}}`, false},
		{`{"top":5}]`, false},
		{`{"top":5},`, false},
		{`{"bogus":1}`, false},
	} {
		var req serveapi.VertexCountsRequest
		err := decodeBody(strings.NewReader(tc.body), &req)
		var br badRequestError
		switch {
		case tc.ok && err != nil:
			t.Errorf("decodeBody(%q) = %v, want accepted", tc.body, err)
		case !tc.ok && !errors.As(err, &br):
			t.Errorf("decodeBody(%q) = %v, want a badRequestError", tc.body, err)
		}
	}

	_, c := newTestServer(t, Config{})
	base := urlOf(t, c)
	info := registerK44(t, c)
	for _, ep := range []struct{ path, body string }{
		{"/v1/graphs/k44/vertex-counts", `{"top":5} {"top":6}`},
		{"/v1/graphs/k44/count", `{}garbage`},
		{"/v1/graphs/k44/mutate", `{"deletes":[[0,0]]}{"bogus":1}`},
		{"/v1/graphs", `{"name":"k22","m":2,"n":2,"edges":[[0,0]]} x`},
		{"/v1/admin/tenants", `{} {}`},
	} {
		resp, raw := rawDo(t, "POST", base+ep.path, ep.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d (%s), want 400", ep.path, ep.body, resp.StatusCode, raw)
		}
	}
	got, err := c.GraphInfo(context.Background(), "k44")
	if err != nil || got.Version != info.Version {
		t.Fatalf("k44 after rejected mutate = %+v, %v; want version %d", got, err, info.Version)
	}
}

// TestEquivalentSpellingsShareCache: the result cache keys on parsed
// values, so a request that spells an equivalent query differently is
// a hit.
func TestEquivalentSpellingsShareCache(t *testing.T) {
	_, c := newTestServer(t, Config{})
	base := urlOf(t, c)
	registerK44(t, c)
	for _, tc := range []struct{ path, first, again string }{
		{"vertex-counts", `{"top":-1}`, `{"top":-7}`},
		{"edge-supports", `{"top":-1}`, `{"top":-3}`},
		{"estimate", `{"seed":3}`, `{"strategy":"auto","seed":3}`},
		{"estimate", `{"seed":4}`, `{"strategy":"edges","seed":4}`},
		{"estimate", `{"strategy":"sparsify","p":0.5}`, `{"strategy":"sparsify","p":0.5,"samples":9}`},
		{"estimate", `{"strategy":"vertices","samples":16}`, `{"strategy":"vertices","samples":16,"p":0.3}`},
	} {
		url := base + "/v1/graphs/k44/" + tc.path
		first, b1 := rawDo(t, "POST", url, tc.first)
		again, b2 := rawDo(t, "POST", url, tc.again)
		if first.StatusCode != http.StatusOK || again.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %d (%s / %s)", tc.path, first.StatusCode, again.StatusCode, b1, b2)
		}
		if xc := again.Header.Get("X-Cache"); xc != "hit" || !bytes.Equal(b1, b2) {
			t.Errorf("%s %s after %s: X-Cache %q (bodies equal: %v), want a hit", tc.path, tc.again, tc.first, xc, bytes.Equal(b1, b2))
		}
	}
}

// FuzzParseQuery checks the five query parse functions on arbitrary
// bodies and URL query strings: none panics, every rejection is a
// badRequestError (a 400, never a 500), and an accepted body,
// re-encoded from the request it decodes to, parses to the same cache
// key.
func FuzzParseQuery(f *testing.F) {
	kinds := []struct {
		name  string
		parse parseFunc
		req   func() any
	}{
		{"count", ParseCount, func() any { return new(serveapi.CountRequest) }},
		{"vertex-counts", parseVertexCounts, func() any { return new(serveapi.VertexCountsRequest) }},
		{"edge-supports", parseEdgeSupports, func() any { return new(serveapi.EdgeSupportsRequest) }},
		{"estimate", ParseEstimate, func() any { return new(serveapi.EstimateRequest) }},
		{"peel", parsePeel, func() any { return new(serveapi.PeelRequest) }},
	}
	f.Fuzz(func(t *testing.T, body []byte, query string) {
		params, err := url.ParseQuery(query)
		if err != nil {
			return
		}
		for _, k := range kinds {
			q, err := k.parse(bytes.NewReader(body), params)
			if err != nil {
				var br badRequestError
				if !errors.As(err, &br) {
					t.Fatalf("%s rejected %q with %T %v, want a badRequestError", k.name, body, err, err)
				}
				continue
			}
			req := k.req()
			if len(bytes.TrimSpace(body)) > 0 {
				if err := json.Unmarshal(body, req); err != nil {
					t.Fatalf("%s accepted %q, which does not unmarshal: %v", k.name, body, err)
				}
			}
			re, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			again, err := k.parse(bytes.NewReader(re), params)
			if err != nil {
				t.Fatalf("%s accepted %q but rejected its re-encoding %s: %v", k.name, body, re, err)
			}
			if again.key != q.key {
				t.Fatalf("%s: %q keys %q, its re-encoding %s keys %q", k.name, body, q.key, re, again.key)
			}
		}
	})
}
