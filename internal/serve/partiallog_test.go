package serve

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"butterfly"
	"butterfly/client"
	"butterfly/serveapi"
)

// getPartial fetches /v1/internal/partial/{name} with the given raw
// query and returns status, body and the partial headers.
func getPartial(t *testing.T, base, name, query string) (status int, body []byte, version, epoch uint64, kind, xcache string) {
	t.Helper()
	url := base + "/v1/internal/partial/" + name
	if query != "" {
		url += "?" + query
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	version, _ = strconv.ParseUint(resp.Header.Get(VersionHeader), 10, 64)
	epoch, _ = strconv.ParseUint(resp.Header.Get(PartialEpochHeader), 10, 64)
	return resp.StatusCode, body, version, epoch, resp.Header.Get(PartialKindHeader), resp.Header.Get("X-Cache")
}

// TestPartialCacheHit: a full export is cached once per version — the
// first plain request misses, a repeat hits with the same body, and a
// debug request bypasses the cache.
func TestPartialCacheHit(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := client.New(ts.URL)
	registerK44(t, c)

	status, first, _, _, _, xc := getPartial(t, ts.URL, "k44", "")
	if status != http.StatusOK || xc != "miss" {
		t.Fatalf("first request: status %d, X-Cache %q (want 200 miss)", status, xc)
	}
	status, again, _, _, _, xc := getPartial(t, ts.URL, "k44", "")
	if status != http.StatusOK || xc != "hit" {
		t.Fatalf("repeat: status %d, X-Cache %q (want 200 hit)", status, xc)
	}
	if string(first) != string(again) {
		t.Fatal("cached body differs from the exported one")
	}
	if _, _, _, _, _, xc = getPartial(t, ts.URL, "k44", "debug=true"); xc != "miss" {
		t.Fatalf("debug request: X-Cache %q (want miss)", xc)
	}
	if _, ps, err := serveapi.DecodePartial(first); err != nil || butterfly.MergeWedgePartials(ps) != 36 {
		t.Fatalf("cached body: err %v, want K4,4's 36 butterflies", err)
	}
}

// TestPartialDeltaSync drives the full → mutate → `?since=` lifecycle
// over HTTP and checks the delta frame re-derives exactly the partials
// a fresh full export reports.
func TestPartialDeltaSync(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := client.New(ts.URL)
	registerK44(t, c)
	ctx := context.Background()

	// First fetch: a full frame that activates the delta log.
	status, body, v1, epoch, kind, _ := getPartial(t, ts.URL, "k44", "")
	if status != http.StatusOK || kind != serveapi.PartialFrameFull {
		t.Fatalf("first fetch: status %d kind %q", status, kind)
	}
	if epoch == 0 {
		t.Fatal("full reply carries no epoch — delta log not activated?")
	}
	_, pinned, err := serveapi.DecodePartial(body)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate twice.
	if _, err := c.Mutate(ctx, "k44", serveapi.MutateRequest{Deletes: [][2]int{{0, 0}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mutate(ctx, "k44", serveapi.MutateRequest{Inserts: [][2]int{{0, 0}}, Deletes: [][2]int{{3, 3}}}); err != nil {
		t.Fatal(err)
	}

	// Delta sync from v1: a delta frame whose application matches a
	// fresh full export.
	q := "since=" + strconv.FormatUint(v1, 10) + "&epoch=" + strconv.FormatUint(epoch, 10)
	status, body, v3, epoch2, kind, _ := getPartial(t, ts.URL, "k44", q)
	if status != http.StatusOK || kind != serveapi.PartialFrameDelta {
		t.Fatalf("since fetch: status %d kind %q (want delta)", status, kind)
	}
	if epoch2 != epoch {
		t.Fatalf("delta reply epoch %d, want %d", epoch2, epoch)
	}
	from, to, delta, err := serveapi.DecodePartialDelta(body)
	if err != nil {
		t.Fatal(err)
	}
	if from != v1 || to != v3 || v3 != v1+2 {
		t.Fatalf("delta spans %d→%d (header v%d), want %d→%d", from, to, v3, v1, v1+2)
	}
	applied, err := butterfly.ApplyWedgePartialDelta(pinned, delta)
	if err != nil {
		t.Fatal(err)
	}
	_, fresh, _, _, _, _ := getPartial(t, ts.URL, "k44", "debug=true")
	_, want, err := serveapi.DecodePartial(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != len(want) {
		t.Fatalf("applied partial has %d entries, fresh full has %d", len(applied), len(want))
	}
	for i := range applied {
		if applied[i] != want[i] {
			t.Fatalf("applied diverges at %d: %+v vs %+v", i, applied[i], want[i])
		}
	}

	// since == current version: an empty "noop" delta.
	q = "since=" + strconv.FormatUint(v3, 10) + "&epoch=" + strconv.FormatUint(epoch, 10)
	_, body, _, _, kind, _ = getPartial(t, ts.URL, "k44", q)
	if kind != serveapi.PartialFrameDelta {
		t.Fatalf("noop since: kind %q", kind)
	}
	if from, to, delta, err := serveapi.DecodePartialDelta(body); err != nil || from != to || len(delta) != 0 {
		t.Fatalf("noop since: %d→%d, %d entries, err %v", from, to, len(delta), err)
	}

	// Wrong epoch: fall back to a full frame re-basing the client.
	q = "since=" + strconv.FormatUint(v1, 10) + "&epoch=" + strconv.FormatUint(epoch+1, 10)
	if _, _, _, _, kind, _ = getPartial(t, ts.URL, "k44", q); kind != serveapi.PartialFrameFull {
		t.Fatalf("wrong epoch: kind %q, want full fallback", kind)
	}

	// Malformed since values are 400s.
	for _, bad := range []string{"since=0", "since=abc", "since=1&epoch=x"} {
		if status, _, _, _, _, _ := getPartial(t, ts.URL, "k44", bad); status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, status)
		}
	}
}

// TestPartialDeltaEviction shrinks the history bounds so mutations
// evict it, and checks `?since=` falls back to a full frame.
func TestPartialDeltaEviction(t *testing.T) {
	oldV := partialLogMaxVersions
	partialLogMaxVersions = 2
	defer func() { partialLogMaxVersions = oldV }()

	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := client.New(ts.URL)
	registerK44(t, c)
	ctx := context.Background()

	_, _, v1, epoch, _, _ := getPartial(t, ts.URL, "k44", "")
	for i := 0; i < 4; i++ {
		pair := [2]int{i % 4, (i + 1) % 4}
		if _, err := c.Mutate(ctx, "k44", serveapi.MutateRequest{Deletes: [][2]int{pair}}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Mutate(ctx, "k44", serveapi.MutateRequest{Inserts: [][2]int{pair}}); err != nil {
			t.Fatal(err)
		}
	}
	q := "since=" + strconv.FormatUint(v1, 10) + "&epoch=" + strconv.FormatUint(epoch, 10)
	_, _, _, _, kind, _ := getPartial(t, ts.URL, "k44", q)
	if kind != serveapi.PartialFrameFull {
		t.Fatalf("evicted history answered kind %q, want full fallback", kind)
	}
	// Recent history is still intact.
	info, err := c.GraphInfo(ctx, "k44")
	if err != nil {
		t.Fatal(err)
	}
	q = "since=" + strconv.FormatUint(info.Version-1, 10) + "&epoch=" + strconv.FormatUint(epoch, 10)
	if _, _, _, _, kind, _ = getPartial(t, ts.URL, "k44", q); kind != serveapi.PartialFrameDelta {
		t.Fatalf("recent since answered kind %q, want delta", kind)
	}
}

// TestPartialLogHammer runs mutators against a graph while a verifier
// tracks the partial map by delta sync at the registry level, checking
// at every observed version that the delta-applied partials equal the
// snapshot's freshly derived ones. Run with -race this also exercises
// the publish-vs-read locking of the partial log.
func TestPartialLogHammer(t *testing.T) {
	const m, n = 16, 16
	rng := rand.New(rand.NewSource(42))
	var edges [][2]int
	for u := 0; u < m; u++ {
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	g, err := butterfly.FromEdges(m, n, edges)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if _, err := reg.Register("g", g, false); err != nil {
		t.Fatal(err)
	}

	snap, epoch, err := reg.EnablePartialLog("g")
	if err != nil {
		t.Fatal(err)
	}
	pinned := snap.Graph.WedgePartials()
	pinnedV := snap.Version

	const workers, batches = 4, 120
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < batches; i++ {
				var ins, del [][2]int
				for k := rng.Intn(4); k >= 0; k-- {
					e := [2]int{rng.Intn(m), rng.Intn(n)}
					if rng.Intn(2) == 0 {
						ins = append(ins, e)
					} else {
						del = append(del, e)
					}
				}
				if _, err := reg.Mutate("g", ins, del); err != nil {
					t.Errorf("mutate: %v", err)
					return
				}
			}
		}(int64(w) + 1)
	}
	go func() { wg.Wait(); close(done) }()

	verify := func() {
		cur, err := reg.Get("g")
		if err != nil {
			t.Fatal(err)
		}
		delta, ok := reg.PartialDeltaSince("g", epoch, pinnedV, cur.Version)
		if !ok {
			// History evicted under us (not expected at default bounds,
			// but legal): re-pin from the snapshot.
			pinned, pinnedV = cur.Graph.WedgePartials(), cur.Version
			return
		}
		applied, err := butterfly.ApplyWedgePartialDelta(pinned, delta)
		if err != nil {
			t.Fatalf("apply at v%d→v%d: %v", pinnedV, cur.Version, err)
		}
		want := cur.Graph.WedgePartials()
		if len(applied) != len(want) {
			t.Fatalf("v%d: applied %d entries, fresh %d", cur.Version, len(applied), len(want))
		}
		for i := range applied {
			if applied[i] != want[i] {
				t.Fatalf("v%d: entry %d: applied %+v, fresh %+v", cur.Version, i, applied[i], want[i])
			}
		}
		pinned, pinnedV = applied, cur.Version
	}

	for {
		select {
		case <-done:
			verify() // final state
			return
		default:
			verify()
		}
	}
}
