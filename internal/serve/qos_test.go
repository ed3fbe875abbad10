package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"butterfly/serveapi"
)

// rawDoH is rawDo with request headers.
func rawDoH(t *testing.T, method, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestCoalescedHerd is the acceptance scenario: a herd of identical
// counts runs the kernel exactly once. MaxInFlight=1 with no queue
// makes the proof sharp — the leader owns the only slot, so the 63
// followers can only succeed by riding its flight, and every reply is
// the leader's exact bytes.
func TestCoalescedHerd(t *testing.T) {
	s, c := newTestServer(t, Config{MaxInFlight: 1, NoQueue: true})
	base := urlOf(t, c)
	info := registerK44(t, c)

	var entered atomic.Int32
	gate := make(chan struct{})
	s.computeHook = func(ctx context.Context) {
		entered.Add(1)
		<-gate
	}

	const herd = 64
	flightKey := fmt.Sprintf("v1|k44|v%d|%s", info.Version, keyCount)
	type reply struct {
		status int
		cache  string
		tenant string
		body   []byte
	}
	replies := make([]reply, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := rawDo(t, "POST", base+"/v1/graphs/k44/count", `{}`)
			replies[i] = reply{
				status: resp.StatusCode,
				cache:  resp.Header.Get("X-Cache"),
				tenant: resp.Header.Get(serveapi.TenantHeader),
				body:   body,
			}
		}(i)
	}
	// The group itself reports when the whole herd is parked on the
	// leader's flight; only then may the kernel finish.
	deadline := time.Now().Add(10 * time.Second)
	for s.flights.Waiting(flightKey) < herd {
		if time.Now().After(deadline) {
			t.Fatalf("herd never assembled: waiting=%d", s.flights.Waiting(flightKey))
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := entered.Load(); got != 1 {
		t.Fatalf("kernel executed %d times for %d identical requests, want 1", got, herd)
	}
	var miss, coalesced int
	for i, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, r.status, r.body)
		}
		if r.tenant != defaultTenant {
			t.Fatalf("request %d: echoed tenant %q, want %q", i, r.tenant, defaultTenant)
		}
		if !bytes.Equal(r.body, replies[0].body) {
			t.Fatalf("request %d: body differs from leader's bytes", i)
		}
		switch r.cache {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		default:
			t.Fatalf("request %d: X-Cache = %q", i, r.cache)
		}
	}
	if miss != 1 || coalesced != herd-1 {
		t.Fatalf("miss=%d coalesced=%d, want 1/%d", miss, coalesced, herd-1)
	}

	// The coalescing is visible to operators too.
	_, metrics := rawDo(t, "GET", base+"/metrics", "")
	if want := fmt.Sprintf("bfserved_coalesced_total %d", herd-1); !strings.Contains(string(metrics), want) {
		t.Fatalf("/metrics missing %q", want)
	}
}

// TestCoalescedFollowersChargedOwnBucket: joining a flight is not a
// quota bypass. A parked leader from an unlimited tenant is joined by
// followers from a burst-5 tenant — exactly 5 ride along, the rest are
// shed with quota_exhausted even though the shared work is free.
func TestCoalescedFollowersChargedOwnBucket(t *testing.T) {
	s, c := newTestServer(t, Config{MaxInFlight: 1, NoQueue: true, Tenants: TenantsConfig{
		Tenants: map[string]TenantSpec{
			"free":    {},
			"limited": {Rate: 0.0001, Burst: 5},
		},
	}})
	base := urlOf(t, c)
	info := registerK44(t, c)

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

	flightKey := fmt.Sprintf("v1|k44|v%d|%s", info.Version, keyCount)
	leaderDone := make(chan reply1, 1)
	go func() {
		resp, _ := rawDoH(t, "POST", base+"/v1/graphs/k44/count", `{}`,
			map[string]string{serveapi.TenantHeader: "free"})
		leaderDone <- reply1{resp.StatusCode, resp.Header.Get(serveapi.TenantHeader), resp.Header.Get("X-Cache")}
	}()
	waitFor(t, func() bool { return s.flights.Waiting(flightKey) >= 1 })

	const followers = 10
	var ok200, quota429 atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := rawDoH(t, "POST", base+"/v1/graphs/k44/count", `{}`,
				map[string]string{serveapi.TenantHeader: "limited"})
			switch resp.StatusCode {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusTooManyRequests:
				det := decodeEnvelope(t, body)
				if det.Code != serveapi.CodeQuotaExhausted {
					t.Errorf("429 code = %q, want %q", det.Code, serveapi.CodeQuotaExhausted)
				}
				if det.RetryAfterMS <= 0 {
					t.Errorf("quota 429 without retry_after_ms: %s", body)
				}
				if resp.Header.Get("Retry-After") == "" {
					t.Error("quota 429 without Retry-After header")
				}
				quota429.Add(1)
			default:
				t.Errorf("follower status %d: %s", resp.StatusCode, body)
			}
		}()
	}
	// The 5 within-burst followers join the leader's flight; the 5
	// over-burst ones 429 immediately without blocking.
	waitFor(t, func() bool { return s.flights.Waiting(flightKey) >= 6 })
	waitFor(t, func() bool { return quota429.Load() == followers-5 })
	release()
	wg.Wait()

	ld := <-leaderDone
	if ld.status != http.StatusOK || ld.tenant != "free" || ld.cache != "miss" {
		t.Fatalf("leader = %+v, want 200/free/miss", ld)
	}
	if ok200.Load() != 5 || quota429.Load() != 5 {
		t.Fatalf("followers: 200=%d 429=%d, want 5/5", ok200.Load(), quota429.Load())
	}
	st := statFor(t, s.lim, "limited")
	if st.shedQuota != 5 {
		t.Fatalf("limited shedQuota = %d, want 5", st.shedQuota)
	}
}

// TestWeightedFairnessOverHTTP: two tenants weighted 4:1, with equal
// queued backlogs of distinct queries, split the scheduler's grants
// 4:1 as bfserved_tenant_admitted_total reports them on /metrics. The
// compute hook holds each granted request until the test lets it go,
// so grants happen one at a time and every window of five is read at a
// known point: after 5w grants the fast tenant holds 4w of them, ±1
// for where the round-robin cursor starts.
func TestWeightedFairnessOverHTTP(t *testing.T) {
	s, c := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 64, NoCache: true, Tenants: TenantsConfig{
		Tenants: map[string]TenantSpec{"fast": {Weight: 4}, "slow": {Weight: 1}},
	}})
	base := urlOf(t, c)
	registerK44(t, c)

	entered, proceed, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
	s.computeHook = func(ctx context.Context) {
		select {
		case entered <- struct{}{}:
			<-proceed
		case <-finished:
		}
	}
	var wg sync.WaitGroup
	var once sync.Once
	release := func() { once.Do(func() { close(finished); close(proceed) }) }
	defer func() { release(); wg.Wait() }() // also on failure: no request stays held
	var failed atomic.Int32
	send := func(tenant string, top int) {
		req, err := http.NewRequest("POST", base+"/v1/graphs/k44/vertex-counts", strings.NewReader(fmt.Sprintf(`{"top":%d}`, top)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(serveapi.TenantHeader, tenant)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				failed.Add(1)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				failed.Add(1)
			}
		}()
	}
	admitted := func(tenant string) int {
		_, body := rawDo(t, "GET", base+"/metrics", "")
		var n int
		prefix := fmt.Sprintf("bfserved_tenant_admitted_total{tenant=%q} ", tenant)
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, prefix) {
				fmt.Sscan(strings.TrimPrefix(line, prefix), &n)
			}
		}
		return n
	}

	send("default", 1000) // holds the only slot while the backlogs queue
	<-entered
	const backlog, windows = 20, 4
	for i := 0; i < backlog; i++ {
		send("fast", 1+i)
		send("slow", 101+i)
	}
	waitFor(t, func() bool { return s.lim.queueDepth() == 2*backlog })

	for g := 1; g <= 5*windows; g++ {
		proceed <- struct{}{} // the holder finishes; the scheduler grants the next
		<-entered
		if g%5 != 0 {
			continue
		}
		fast, slow := admitted("fast"), admitted("slow")
		if w := g / 5; fast+slow != g || fast < 4*w-1 || fast > 4*w+1 {
			t.Fatalf("after %d grants: fast %d, slow %d; want %d±1 fast", g, fast, slow, 4*w)
		}
	}
	release()
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d queued requests did not answer 200", n)
	}
}

// TestTenantHeadersAndBodyPrecedence: the wire contract — header sets
// the tenant, body wins over header, unknown names collapse to
// default, and the resolved pair is echoed on the response.
func TestTenantHeadersAndBodyPrecedence(t *testing.T) {
	_, c := newTestServer(t, Config{Tenants: TenantsConfig{
		Tenants: map[string]TenantSpec{"gold": {Weight: 4}, "silver": {}},
	}})
	base := urlOf(t, c)
	registerK44(t, c)

	cases := []struct {
		name         string
		hdr          map[string]string
		body         string
		wantTenant   string
		wantPriority string
	}{
		{"header only", map[string]string{serveapi.TenantHeader: "gold"}, `{}`, "gold", "interactive"},
		{"body wins", map[string]string{serveapi.TenantHeader: "gold"}, `{"tenant":"silver"}`, "silver", "interactive"},
		{"unknown collapses", map[string]string{serveapi.TenantHeader: "mystery"}, `{}`, "default", "interactive"},
		{"priority header", map[string]string{serveapi.TenantHeader: "gold", serveapi.PriorityHeader: "batch"}, `{}`, "gold", "batch"},
		{"priority body wins", map[string]string{serveapi.PriorityHeader: "batch"}, `{"priority":"interactive"}`, "default", "interactive"},
	}
	for _, tc := range cases {
		resp, body := rawDoH(t, "POST", base+"/v1/graphs/k44/count", tc.body, tc.hdr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, resp.StatusCode, body)
		}
		if got := resp.Header.Get(serveapi.TenantHeader); got != tc.wantTenant {
			t.Errorf("%s: echoed tenant %q, want %q", tc.name, got, tc.wantTenant)
		}
		if got := resp.Header.Get(serveapi.PriorityHeader); got != tc.wantPriority {
			t.Errorf("%s: echoed priority %q, want %q", tc.name, got, tc.wantPriority)
		}
	}

	// A bad priority is a 400, whether it arrives by header or body.
	resp, body := rawDoH(t, "POST", base+"/v1/graphs/k44/count", `{}`,
		map[string]string{serveapi.PriorityHeader: "urgent"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority header: status %d: %s", resp.StatusCode, body)
	}
	det := decodeEnvelope(t, body)
	if det.Code != serveapi.CodeInvalidArgument {
		t.Fatalf("bad priority header code = %q", det.Code)
	}
	resp, body = rawDo(t, "POST", base+"/v1/graphs/k44/count", `{"priority":"urgent"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority body: status %d: %s", resp.StatusCode, body)
	}
}

// TestLegacySunsetHeaders: the unversioned aliases still answer, but
// every response announces the deprecation, the sunset date, and a
// pointer to the migration doc — and remaining traffic is counted.
func TestLegacySunsetHeaders(t *testing.T) {
	_, c := newTestServer(t, Config{})
	base := urlOf(t, c)
	registerK44(t, c)

	resp, body := rawDo(t, "POST", base+"/graphs/k44/count", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy count: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Deprecation"); got != "true" {
		t.Errorf("Deprecation = %q", got)
	}
	if got := resp.Header.Get("Sunset"); got != legacySunset {
		t.Errorf("Sunset = %q, want %q", got, legacySunset)
	}
	if got := resp.Header.Get("Link"); got != legacySunsetLink {
		t.Errorf("Link = %q, want %q", got, legacySunsetLink)
	}
	// Tenancy is /v1-only: the legacy surface never echoes it.
	if got := resp.Header.Get(serveapi.TenantHeader); got != "" {
		t.Errorf("legacy response echoed tenant %q", got)
	}
	// The /v1 surface carries none of the sunset metadata.
	resp, _ = rawDo(t, "POST", base+"/v1/graphs/k44/count", `{}`)
	if resp.Header.Get("Sunset") != "" || resp.Header.Get("Deprecation") != "" {
		t.Error("/v1 response carries sunset metadata")
	}

	_, metrics := rawDo(t, "GET", base+"/metrics", "")
	if !strings.Contains(string(metrics), `bfserved_legacy_requests_total{route="count"} 1`) {
		t.Error("/metrics missing legacy request counter for route=count")
	}
}

// TestLegacyDisabled410: under -disable-legacy the unversioned
// surface answers 410 Gone in the legacy body shape, while /v1 and the
// unversioned QoS admin endpoint (which postdates the sunset) work.
func TestLegacyDisabled410(t *testing.T) {
	_, c := newTestServer(t, Config{DisableLegacy: true})
	base := urlOf(t, c)
	registerK44(t, c)

	resp, body := rawDo(t, "POST", base+"/graphs/k44/count", `{}`)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("legacy under disable: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Sunset") != legacySunset {
		t.Error("410 response missing Sunset header")
	}
	// Legacy error shape: {"status","error"}, never the /v1 envelope.
	if !bytes.Contains(body, []byte(`"status":410`)) || bytes.Contains(body, []byte(`"code"`)) {
		t.Fatalf("410 body is not the legacy shape: %s", body)
	}
	if !bytes.Contains(body, []byte("/v1/graphs/k44/count")) {
		t.Fatalf("410 body does not point at the /v1 replacement: %s", body)
	}

	resp, body = rawDo(t, "POST", base+"/v1/graphs/k44/count", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1 under disable-legacy: status %d: %s", resp.StatusCode, body)
	}
	resp, _ = rawDo(t, "GET", base+"/admin/tenants", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/admin/tenants under disable-legacy: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Deprecation") != "" {
		t.Error("/admin/tenants marked deprecated; it is not part of the sunset")
	}
}

// TestAdminTenantsReload: the tenant config hot-swaps over HTTP and
// immediately changes how tenants resolve.
func TestAdminTenantsReload(t *testing.T) {
	s, c := newTestServer(t, Config{Tenants: TenantsConfig{
		Tenants: map[string]TenantSpec{"old": {Weight: 2}},
	}})
	base := urlOf(t, c)
	registerK44(t, c)

	resp, body := rawDo(t, "GET", base+"/v1/admin/tenants", "")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"old"`)) {
		t.Fatalf("GET tenants: %d %s", resp.StatusCode, body)
	}

	resp, body = rawDo(t, "POST", base+"/v1/admin/tenants",
		`{"default":{"weight":1},"tenants":{"new":{"rate":50,"burst":10,"weight":3}}}`)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"new"`)) {
		t.Fatalf("POST tenants: %d %s", resp.StatusCode, body)
	}

	// "old" is gone from the config: requests naming it are now charged
	// (and echoed) as default; "new" resolves.
	resp, _ = rawDoH(t, "POST", base+"/v1/graphs/k44/count", `{}`,
		map[string]string{serveapi.TenantHeader: "old"})
	if got := resp.Header.Get(serveapi.TenantHeader); got != "default" {
		t.Errorf("dropped tenant echoes %q, want default", got)
	}
	resp, _ = rawDoH(t, "POST", base+"/v1/graphs/k44/count", `{}`,
		map[string]string{serveapi.TenantHeader: "new"})
	if got := resp.Header.Get(serveapi.TenantHeader); got != "new" {
		t.Errorf("fresh tenant echoes %q, want new", got)
	}
	if got := s.lim.config().Tenants["new"].Weight; got != 3 {
		t.Errorf("reloaded weight = %d, want 3", got)
	}

	// Malformed config is rejected without disturbing the active one.
	resp, _ = rawDo(t, "POST", base+"/v1/admin/tenants", `{"tenants":`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed config: status %d", resp.StatusCode)
	}
	if _, ok := s.lim.config().Tenants["new"]; !ok {
		t.Fatal("active config lost after rejected reload")
	}
}

// TestTenantMetricsExposed: the per-tenant families render on /metrics
// with one series per configured tenant.
func TestTenantMetricsExposed(t *testing.T) {
	_, c := newTestServer(t, Config{Tenants: TenantsConfig{
		Tenants: map[string]TenantSpec{"acme": {Weight: 4, SLOMillis: 500}},
	}})
	base := urlOf(t, c)
	registerK44(t, c)

	resp, _ := rawDoH(t, "POST", base+"/v1/graphs/k44/count", `{}`,
		map[string]string{serveapi.TenantHeader: "acme"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("count: %d", resp.StatusCode)
	}

	_, metrics := rawDo(t, "GET", base+"/metrics", "")
	m := string(metrics)
	for _, want := range []string{
		`bfserved_tenant_admitted_total{tenant="acme"} 1`,
		`bfserved_tenant_shed_total{tenant="acme",reason="queue"} 0`,
		`bfserved_tenant_shed_total{tenant="acme",reason="quota"} 0`,
		`bfserved_tenant_queue_depth{tenant="acme"} 0`,
		`bfserved_tenant_weight{tenant="acme"} 4`,
		`bfserved_tenant_slo_burn{tenant="acme"}`,
		`bfserved_tenant_admitted_total{tenant="default"}`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

type reply1 struct {
	status int
	tenant string
	cache  string
}

// waitFor polls cond with a shared 10s deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
