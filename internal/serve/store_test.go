package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"butterfly"
	"butterfly/client"
	"butterfly/internal/store"
	"butterfly/serveapi"
)

// openStore opens a durable store over dir and registers cleanup.
func openStore(t *testing.T, dir string) (*store.Store, []store.Recovered) {
	t.Helper()
	st, rec, err := store.Open(dir, store.Options{Fsync: store.FsyncNever, Logf: t.Logf})
	if err != nil {
		t.Fatalf("store open: %v", err)
	}
	return st, rec
}

// newDurableServer builds a Server backed by a store over dir.
func newDurableServer(t *testing.T, dir string) (*Server, *client.Client, *store.Store) {
	t.Helper()
	st, _ := openStore(t, dir)
	s, c := newTestServer(t, Config{Store: st})
	t.Cleanup(func() { s.Close(); st.Close() })
	return s, c, st
}

// adoptAll reopens dir and adopts every recovered graph into a fresh
// server — the daemon's restart path, in-process.
func adoptAll(t *testing.T, dir string) (*Server, *client.Client, *store.Store) {
	t.Helper()
	st, rec := openStore(t, dir)
	s, c := newTestServer(t, Config{Store: st})
	t.Cleanup(func() { s.Close(); st.Close() })
	for _, r := range rec {
		if _, err := s.Registry().Adopt(r.Name, r.Counter, r.Version); err != nil {
			t.Fatalf("adopt %q: %v", r.Name, err)
		}
	}
	return s, c, st
}

// TestDurableRestartServesIdenticalState is the clean-restart path of
// the durability contract: register + mutate through HTTP, close the
// server and the store, reopen the same dir, and the new server must
// serve identical counts at the same (graph, version). The crash path,
// a daemon killed with SIGKILL, is cmd/bfserved's TestRunCrashRecovery.
func TestDurableRestartServesIdenticalState(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s1, c1, st1 := newDurableServer(t, dir)
	if _, err := c1.Register(ctx, serveapi.RegisterRequest{
		Name: "k44", M: 4, N: 4, Edges: completeEdges(4, 4),
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	mut, err := c1.Mutate(ctx, "k44", serveapi.MutateRequest{
		Inserts: [][2]int{{0, 0}}, // duplicate: no-op but still a version
		Deletes: [][2]int{{3, 3}, {3, 2}},
	})
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	mut2, err := c1.Mutate(ctx, "k44", serveapi.MutateRequest{Inserts: [][2]int{{3, 3}}})
	if err != nil {
		t.Fatalf("mutate 2: %v", err)
	}
	if mut2.Version != mut.Version+1 {
		t.Fatalf("versions not consecutive: %d then %d", mut.Version, mut2.Version)
	}
	want, err := c1.GraphInfo(ctx, "k44")
	if err != nil {
		t.Fatal(err)
	}
	// Clean stop: close the server and the store, then reopen the dir.
	s1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	_, c2, _ := adoptAll(t, dir)
	got, err := c2.GraphInfo(ctx, "k44")
	if err != nil {
		t.Fatalf("graph lost across restart: %v", err)
	}
	if got != want {
		t.Fatalf("state differs across restart:\n got %+v\nwant %+v", got, want)
	}
	cnt, err := c2.Count(ctx, "k44", serveapi.CountRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Butterflies != want.Butterflies || cnt.Version != want.Version {
		t.Fatalf("recovered count %d @ v%d, want %d @ v%d",
			cnt.Butterflies, cnt.Version, want.Butterflies, want.Version)
	}
}

// TestDurableDropSurvivesRestart checks a drop is as durable as a
// register.
func TestDurableDropSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s1, c1, st1 := newDurableServer(t, dir)
	if _, err := c1.Register(ctx, serveapi.RegisterRequest{
		Name: "gone", M: 2, N: 2, Edges: completeEdges(2, 2),
	}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Drop(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	st1.Close()

	_, c2, _ := adoptAll(t, dir)
	if _, err := c2.GraphInfo(ctx, "gone"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("dropped graph resurrected: %v", err)
	}
}

// TestAdminCheckpoint exercises POST /admin/checkpoint: it must
// compact the WAL, and recovery afterwards must come from snapshots.
func TestAdminCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s1, c1, st1 := newDurableServer(t, dir)
	if _, err := c1.Register(ctx, serveapi.RegisterRequest{
		Name: "k33", M: 3, N: 3, Edges: completeEdges(3, 3),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Mutate(ctx, "k33", serveapi.MutateRequest{Deletes: [][2]int{{2, 2}}}); err != nil {
		t.Fatal(err)
	}
	resp, err := c1.Checkpoint(ctx)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if resp.Graphs != 1 || resp.WALBytesBefore == 0 || resp.WALBytesAfter != 0 {
		t.Fatalf("checkpoint response %+v", resp)
	}
	want, err := c1.GraphInfo(ctx, "k33")
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	st1.Close()

	st2, rec := openStore(t, dir)
	defer st2.Close()
	if len(rec) != 1 || rec[0].Source != "snapshot" {
		t.Fatalf("recovered %+v, want 1 graph from snapshot", rec)
	}
	if rec[0].Version != want.Version || rec[0].Count != want.Butterflies {
		t.Fatalf("snapshot recovery v%d count %d, want v%d count %d",
			rec[0].Version, rec[0].Count, want.Version, want.Butterflies)
	}
}

// TestAdminCheckpointWithoutStore: an in-memory daemon must answer 400,
// not pretend to be durable.
func TestAdminCheckpointWithoutStore(t *testing.T) {
	_, c := newTestServer(t, Config{})
	_, err := c.Checkpoint(context.Background())
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("checkpoint without -data-dir: %v, want 400", err)
	}
	if !strings.Contains(apiErr.Message, "durability") {
		t.Fatalf("unhelpful 400 message: %q", apiErr.Message)
	}
}

// TestDurabilityFailureIs500AndRollsBack: when the WAL cannot accept
// an append (simulated by closing the store under the live server),
// writes must fail with 500 — never 4xx, never a silent in-memory-only
// apply — and the published graph must be unchanged.
func TestDurabilityFailureIs500AndRollsBack(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, c, st := newDurableServer(t, dir)
	if _, err := c.Register(ctx, serveapi.RegisterRequest{
		Name: "k44", M: 4, N: 4, Edges: completeEdges(4, 4),
	}); err != nil {
		t.Fatal(err)
	}
	before, err := c.GraphInfo(ctx, "k44")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // the "disk" goes away
		t.Fatal(err)
	}

	_, err = c.Mutate(ctx, "k44", serveapi.MutateRequest{Deletes: [][2]int{{0, 0}}})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 500 {
		t.Fatalf("mutate with dead WAL: %v, want 500", err)
	}
	after, err := c.GraphInfo(ctx, "k44")
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("failed mutate leaked state:\n before %+v\n after %+v", before, after)
	}
	if _, err := c.Register(ctx, serveapi.RegisterRequest{
		Name: "late", M: 2, N: 2, Edges: completeEdges(2, 2),
	}); err == nil {
		t.Fatal("register with dead WAL succeeded")
	}
	if _, err := c.GraphInfo(ctx, "late"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("failed register published anyway: %v", err)
	}
}

// TestMutateCheckpointHammer races mutation batches against admin
// checkpoints (race detector coverage for the registry/store lock
// choreography), then proves a restart lands on the exact final state.
func TestMutateCheckpointHammer(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s1, c1, st1 := newDurableServer(t, dir)
	const graphs = 3
	for i := 0; i < graphs; i++ {
		if _, err := c1.Register(ctx, serveapi.RegisterRequest{
			Name: fmt.Sprintf("g%d", i), M: 6, N: 6, Edges: completeEdges(6, 6),
		}); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 20
	var wg sync.WaitGroup
	for i := 0; i < graphs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("g%d", i)
			for r := 0; r < rounds; r++ {
				var req serveapi.MutateRequest
				if r%2 == 0 {
					req.Deletes = [][2]int{{r % 6, (r + i) % 6}}
				} else {
					req.Inserts = [][2]int{{(r - 1) % 6, (r - 1 + i) % 6}}
				}
				if _, err := c1.Mutate(ctx, name, req); err != nil {
					t.Errorf("mutate %s round %d: %v", name, r, err)
					return
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 5; r++ {
			if _, err := c1.Checkpoint(ctx); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	want := make(map[string]serveapi.GraphInfo)
	for i := 0; i < graphs; i++ {
		name := fmt.Sprintf("g%d", i)
		info, err := c1.GraphInfo(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = info
	}
	s1.Close()
	st1.Close()

	_, c2, _ := adoptAll(t, dir)
	for name, w := range want {
		got, err := c2.GraphInfo(ctx, name)
		if err != nil {
			t.Fatalf("%s lost: %v", name, err)
		}
		if got != w {
			t.Fatalf("%s differs after restart:\n got %+v\nwant %+v", name, got, w)
		}
	}
}

// TestMetricsExposeStoreGauges checks the durable-mode metrics appear
// in /metrics (and only in durable mode).
func TestMetricsExposeStoreGauges(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, c, _ := newDurableServer(t, dir)
	if _, err := c.Register(ctx, serveapi.RegisterRequest{
		Name: "m", M: 2, N: 2, Edges: completeEdges(2, 2),
	}); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		"bfserved_wal_bytes",
		"bfserved_wal_fsyncs_total",
		"bfserved_checkpoints_total",
		"bfserved_checkpoint_errors_total",
	} {
		if !strings.Contains(text, metric) {
			t.Fatalf("metrics missing %s:\n%s", metric, text)
		}
	}

	_, plain := newTestServer(t, Config{})
	text, err = plain.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text, "bfserved_wal_bytes") {
		t.Fatal("in-memory server exports WAL metrics")
	}
}

// TestAdoptRejectsLiveName: recovery adoption must never clobber a
// graph that is already registered.
func TestAdoptRejectsLiveName(t *testing.T) {
	s, c := newTestServer(t, Config{})
	if _, err := c.Register(context.Background(), serveapi.RegisterRequest{
		Name: "g", M: 2, N: 2, Edges: completeEdges(2, 2),
	}); err != nil {
		t.Fatal(err)
	}
	g, err := butterfly.FromEdges(2, 2, completeEdges(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Adopt("g", butterfly.NewDynamicCounterFromGraph(g), 5); err == nil {
		t.Fatal("adopt over a live graph succeeded")
	}
}
