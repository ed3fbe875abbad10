package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"butterfly/client"
	"butterfly/serveapi"
)

// TestRunServeAndShutdown boots the daemon on an ephemeral port with a
// preloaded dataset, exercises the API end to end and under a seeded
// concurrent mix of all six operations, then delivers SIGTERM and
// checks the graceful drain path returns cleanly and the slow-query
// log file holds the run.
func TestRunServeAndShutdown(t *testing.T) {
	slowLog := filepath.Join(t.TempDir(), "slow.log")
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-preload", "occupations@100",
			"-drain", "5s",
			"-pprof",
			"-slow-query-ms", "0",
			"-slow-query-log", slowLog,
		}, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := client.New("http://" + addr)

	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health = %+v, %v", h, err)
	}
	if h.Graphs != 1 {
		t.Fatalf("preload registered %d graphs, want 1", h.Graphs)
	}
	info, err := c.GraphInfo(ctx, "occupations")
	if err != nil {
		t.Fatalf("graph info: %v", err)
	}
	resp, err := c.Count(ctx, "occupations", serveapi.CountRequest{Threads: -1})
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if resp.Butterflies != info.Butterflies {
		t.Fatalf("count %d != preload count %d", resp.Butterflies, info.Butterflies)
	}

	// A seeded concurrent mix of all six operations answers no 5xx.
	loadMix(t, "http://"+addr, info, mixOps, 1, 8, 240)

	// Graceful shutdown: the run goroutine catches SIGTERM, drains and
	// returns nil.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down after SIGTERM")
	}

	// With -slow-query-ms 0 the log file holds one JSON line per
	// request, a count among them.
	logged, err := os.ReadFile(slowLog)
	if err != nil {
		t.Fatal(err)
	}
	var sawCount bool
	for _, line := range strings.Split(strings.TrimSpace(string(logged)), "\n") {
		var e struct{ Route string }
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("slow-query log line is not JSON: %v: %s", err, line)
		}
		sawCount = sawCount || e.Route == "count"
	}
	if !sawCount {
		t.Fatalf("slow-query log has no count request:\n%s", logged)
	}
}

// mixOps are the operations a mixed load draws from.
var mixOps = []string{"count", "vertex", "edges", "estimate", "peel", "mutate"}

// loadMix sends n requests to one graph on base from workers
// goroutines, each drawing its operations and parameters from its own
// seeded generator. Every answer must be a 200 or a 429 shed: a 5xx or
// a transport error fails the test. Each operation in ops must succeed
// at least once. The load has its own connections and closes them when
// done, so a drain that follows waits for none of them.
func loadMix(t *testing.T, base string, info serveapi.GraphInfo, ops []string, seed int64, workers, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := client.New(base, client.WithHTTPClient(&http.Client{Transport: tr}))
	var (
		next atomic.Int64
		mu   sync.Mutex
		ok   = map[string]int{}
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for next.Add(1) <= int64(n) {
				op := ops[rng.Intn(len(ops))]
				var err error
				switch op {
				case "count":
					_, err = c.Count(ctx, info.Name, serveapi.CountRequest{Invariant: rng.Intn(9), Threads: 1 - 2*rng.Intn(2)})
				case "vertex":
					_, err = c.VertexCounts(ctx, info.Name, serveapi.VertexCountsRequest{Side: []string{"v1", "v2"}[rng.Intn(2)], Top: 1 + rng.Intn(20)})
				case "edges":
					_, err = c.EdgeSupports(ctx, info.Name, serveapi.EdgeSupportsRequest{Top: 1 + rng.Intn(20)})
				case "estimate":
					_, err = c.Estimate(ctx, info.Name, serveapi.EstimateRequest{Strategy: "edges", Samples: 500, Seed: rng.Int63n(16)})
				case "peel":
					_, err = c.Peel(ctx, info.Name, serveapi.PeelRequest{Mode: "tip", K: int64(1 + rng.Intn(4)), Side: "v1", Threads: -1})
				case "mutate":
					e := [2]int{rng.Intn(info.NumV1), rng.Intn(info.NumV2)}
					_, err = c.Mutate(ctx, info.Name, serveapi.MutateRequest{
						Inserts: [][2]int{e, {rng.Intn(info.NumV1), rng.Intn(info.NumV2)}},
						Deletes: [][2]int{e},
					})
				}
				var apiErr *client.APIError
				switch {
				case err == nil:
					mu.Lock()
					ok[op]++
					mu.Unlock()
				case errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests:
				default:
					t.Errorf("%s on %s: %v", op, info.Name, err)
					return
				}
			}
		}(rand.New(rand.NewSource(seed + int64(w))))
	}
	wg.Wait()
	for _, op := range ops {
		if ok[op] == 0 {
			t.Errorf("no %s on %s succeeded in %d requests (%v)", op, info.Name, n, ok)
		}
	}
}

// startDaemon boots run() in a goroutine and returns its address plus
// the exit channel.
func startDaemon(t *testing.T, args []string) (string, chan error) {
	t.Helper()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(args, ready) }()
	select {
	case addr := <-ready:
		return addr, done
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}
	panic("unreachable")
}

// stopDaemon delivers SIGTERM and waits for a clean exit.
func stopDaemon(t *testing.T, done chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down after SIGTERM")
	}
}

// TestRunDurableRestart is the daemon-level durability contract: boot
// with -data-dir, mutate a preloaded graph, restart over the same
// directory, and the second process must serve the identical count at
// the identical (graph, version) — with the preload skipped in favor
// of the recovered state.
func TestRunDurableRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0",
		"-preload", "occupations@100",
		"-data-dir", dir,
		"-fsync", "never", // durability semantics, not disk stamina
		"-drain", "5s",
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	addr, done := startDaemon(t, args)
	c := client.New("http://" + addr)
	mut, err := c.Mutate(ctx, "occupations", serveapi.MutateRequest{
		Deletes: [][2]int{{0, 0}, {1, 1}},
	})
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	if mut.Version != 2 {
		t.Fatalf("mutate produced v%d, want v2", mut.Version)
	}
	want, err := c.GraphInfo(ctx, "occupations")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, serveapi.RegisterRequest{
		Name: "inline", M: 2, N: 2, Edges: [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}},
	}); err != nil {
		t.Fatalf("register inline: %v", err)
	}
	stopDaemon(t, done)

	// Second life. Same -preload: it must be skipped because the
	// recovered (mutated) graph is the acknowledged one.
	addr2, done2 := startDaemon(t, args)
	defer stopDaemon(t, done2)
	c2 := client.New("http://" + addr2)
	got, err := c2.GraphInfo(ctx, "occupations")
	if err != nil {
		t.Fatalf("occupations lost across restart: %v", err)
	}
	if got != want {
		t.Fatalf("restart state differs:\n got %+v\nwant %+v", got, want)
	}
	cnt, err := c2.Count(ctx, "occupations", serveapi.CountRequest{Threads: -1})
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Butterflies != want.Butterflies || cnt.Version != want.Version {
		t.Fatalf("recovered count %d @ v%d, want %d @ v%d",
			cnt.Butterflies, cnt.Version, want.Butterflies, want.Version)
	}
	inline, err := c2.GraphInfo(ctx, "inline")
	if err != nil || inline.Butterflies != 1 {
		t.Fatalf("inline graph: %+v, %v (want 1 butterfly)", inline, err)
	}
	if _, err := c2.Checkpoint(ctx); err != nil {
		t.Fatalf("admin checkpoint on durable daemon: %v", err)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-preload", "occupations@zero", "-addr", "127.0.0.1:0"}, nil); err == nil {
		t.Fatal("bad -preload scale accepted")
	}
	if err := run([]string{"-preload", "no-such-dataset", "-addr", "127.0.0.1:0"}, nil); err == nil {
		t.Fatal("unknown -preload dataset accepted")
	}
	if err := run([]string{"-data-dir", t.TempDir(), "-fsync", "sometimes", "-addr", "127.0.0.1:0"}, nil); err == nil {
		t.Fatal("bad -fsync policy accepted")
	}
	// Flags the chosen mode would ignore are refused before anything
	// starts: node knobs on a router, and durability or slow-log knobs
	// without the flag that switches them on.
	if err := run([]string{"-addr", "127.0.0.1:0", "-role", "router", "-shards", "http://127.0.0.1:1",
		"-tenants", "/nonexistent.json", "-max-inflight", "1", "-pprof", "-slow-query-ms", "0"}, nil); err == nil ||
		!strings.Contains(err.Error(), "does not apply to -role=router") {
		t.Fatalf("router with node flags: err = %v", err)
	}
	slowLog := filepath.Join(t.TempDir(), "x.log")
	if err := run([]string{"-addr", "127.0.0.1:0", "-fsync", "never", "-checkpoint-bytes", "5",
		"-slow-query-log", slowLog}, nil); err == nil || !strings.Contains(err.Error(), "has no effect without") {
		t.Fatalf("durability and slow-log flags without their switches: err = %v", err)
	}
	if _, err := os.Stat(slowLog); !os.IsNotExist(err) {
		t.Fatalf("refused start created %s (stat err %v)", slowLog, err)
	}
}

// TestRunTenantsAndLegacyFlags boots the daemon with a -tenants file
// and -disable-legacy: requests are charged under the configured
// tenant (echoed back), the config is live on /admin/tenants, and the
// deprecated unversioned routes answer 410 Gone.
func TestRunTenantsAndLegacyFlags(t *testing.T) {
	tf := t.TempDir() + "/tenants.json"
	if err := os.WriteFile(tf, []byte(`{
		"default": {"weight": 1},
		"tenants": {"gold": {"rate": 100, "burst": 10, "weight": 4, "slo_ms": 100}}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-preload", "occupations@50",
			"-tenants", tf,
			"-disable-legacy",
			"-drain", "5s",
		}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	c := client.New(base, client.WithTenant("gold"), client.WithPriority("batch"))
	if _, err := c.Count(ctx, "occupations", serveapi.CountRequest{}); err != nil {
		t.Fatalf("count as gold: %v", err)
	}
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/graphs/occupations/count", strings.NewReader(`{}`))
	req.Header.Set(serveapi.TenantHeader, "gold")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(serveapi.TenantHeader); got != "gold" {
		t.Errorf("echoed tenant = %q, want gold", got)
	}

	// The file config is live on the admin endpoint.
	areq, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/admin/tenants", nil)
	aresp, err := http.DefaultClient.Do(areq)
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := io.ReadAll(aresp.Body)
	aresp.Body.Close()
	if !strings.Contains(string(ab), `"gold"`) {
		t.Errorf("/admin/tenants missing configured tenant: %s", ab)
	}

	// Legacy surface is sunset.
	lreq, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/graphs/occupations/count", strings.NewReader(`{}`))
	lresp, err := http.DefaultClient.Do(lreq)
	if err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusGone {
		t.Errorf("legacy route status = %d, want 410", lresp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("server never drained")
	}
}

// TestLoadTenantsRejectsTypos: unknown fields in the -tenants file
// fail at startup rather than silently degrading to default QoS.
func TestLoadTenantsRejectsTypos(t *testing.T) {
	tf := t.TempDir() + "/tenants.json"
	if err := os.WriteFile(tf, []byte(`{"tenants": {"a": {"wieght": 4}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTenants(tf); err == nil {
		t.Fatal("typo'd tenant config accepted")
	}
	if _, err := loadTenants(t.TempDir() + "/missing.json"); err == nil {
		t.Fatal("missing tenant file accepted")
	}
}
