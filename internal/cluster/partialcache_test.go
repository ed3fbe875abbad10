package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"butterfly"
	"butterfly/client"
	"butterfly/internal/flight"
	"butterfly/serveapi"
)

// countRaw posts a count through the router and returns the response
// headers along with the decoded body, for X-Cache assertions the
// typed client hides.
func countRaw(t *testing.T, base, name string) (serveapi.CountResponse, http.Header) {
	t.Helper()
	resp, err := http.Post(base+"/v1/graphs/"+name+"/count", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	defer resp.Body.Close()
	var cr serveapi.CountResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatalf("decode count: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("count status %d", resp.StatusCode)
	}
	return cr, resp.Header
}

// TestDeltaSyncDifferential is the PR's correctness core: interleaved
// mutate and count rounds against partitioned graphs must stay byte-
// identical to a single-node dynamic counter replaying the same
// batches, with the router syncing by delta frames in between.
func TestDeltaSyncDifferential(t *testing.T) {
	shards := spawnShards(t, 2)
	rt, rts := newRouter(t, urlsOf(shards), Config{})
	c := client.New(rts.URL)
	ctx := context.Background()

	for _, p := range []int{1, 2, 4} {
		name := fmt.Sprintf("dsd-p%d", p)
		g := mustGen(t)(butterfly.GenerateGnm(60, 50, 450, int64(100+p)))
		registerInline(t, c, name, g, p)
		local := butterfly.NewDynamicCounterFromGraph(g)
		rng := rand.New(rand.NewSource(int64(p)))

		for round := 0; round < 5; round++ {
			// Count first so the router has pinned partials to sync.
			cr, err := c.Count(ctx, name, serveapi.CountRequest{})
			if err != nil {
				t.Fatalf("%s round %d: count: %v", name, round, err)
			}
			if cr.Butterflies != local.Count() {
				t.Fatalf("%s round %d: count %d, local replay %d", name, round, cr.Butterflies, local.Count())
			}

			var ins, del [][2]int
			for k := 0; k < 6; k++ {
				e := [2]int{rng.Intn(60), rng.Intn(50)}
				if rng.Intn(2) == 0 {
					ins = append(ins, e)
					local.InsertEdge(e[0], e[1])
				} else {
					del = append(del, e)
					local.DeleteEdge(e[0], e[1])
				}
			}
			mr, err := c.Mutate(ctx, name, serveapi.MutateRequest{Inserts: ins, Deletes: del})
			if err != nil {
				t.Fatalf("%s round %d: mutate: %v", name, round, err)
			}
			if p > 1 && mr.Count != local.Count() {
				t.Fatalf("%s round %d: mutate count %d, local replay %d", name, round, mr.Count, local.Count())
			}
			if mr.Edges != local.NumEdges() {
				t.Fatalf("%s round %d: mutate edges %d, local replay %d", name, round, mr.Edges, local.NumEdges())
			}
		}
		if p > 1 {
			concurrentTraffic(t, rts.URL, c, name, p, local, rng)
		}
		// Final check plus the fast path: a repeat count on the now-
		// unchanged graph must come from the merged pin.
		cr, _ := countRaw(t, rts.URL, name)
		if cr.Butterflies != local.Count() {
			t.Fatalf("%s final: count %d, local replay %d", name, cr.Butterflies, local.Count())
		}
		if p > 1 {
			cr, hdr := countRaw(t, rts.URL, name)
			if cr.Butterflies != local.Count() {
				t.Fatalf("%s cached: count %d, local replay %d", name, cr.Butterflies, local.Count())
			}
			if hdr.Get("X-Cache") != "merged" {
				t.Errorf("%s: repeat count X-Cache = %q, want merged", name, hdr.Get("X-Cache"))
			}
		}
	}

	// The deltas actually flowed: after the first full fetch per
	// partition, re-gathers after mutations must have synced by delta.
	if v := rt.partialHits.With("delta").Value(); v == 0 {
		t.Error("no delta-frame syncs recorded across mutate/count rounds")
	}
	if v := rt.partialHits.With("merged").Value(); v == 0 {
		t.Error("no merged-pin hits recorded for repeat counts")
	}
	// Delta gathers reduce incrementally; full merges are left to the
	// registrations' cold gathers and the debug scatters.
	if v := rt.mergeSecs.With("incremental").Count(); v == 0 {
		t.Error("no incremental reductions recorded")
	}
	if v := rt.mergeSecs.With("full").Count(); v == 0 {
		t.Error("no full merges recorded")
	}
}

// concurrentTraffic runs plain and ?debug=true counts against a
// partitioned graph while one writer mutates it. The batches all go to
// one partition: a gather fetches the partitions at slightly different
// moments, and with one partition changing every state it can observe
// is a whole prefix of the batches. Every answer must equal the local
// replay's count at the version it reports, and every debug trace must
// name a full merge.
func concurrentTraffic(t *testing.T, base string, c *client.Client, name string, p int, local *butterfly.DynamicCounter, rng *rand.Rand) {
	t.Helper()
	ctx := context.Background()
	cr0, _ := countRaw(t, base, name)
	var mu sync.Mutex
	want := map[uint64]int64{cr0.Version: cr0.Butterflies}
	var seen []serveapi.CountResponse
	done := make(chan struct{})

	var wg sync.WaitGroup
	read := func(debug bool) {
		defer wg.Done()
		url := base + "/v1/graphs/" + name + "/count"
		if debug {
			url += "?debug=true"
		}
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Post(url, "application/json", bytes.NewReader([]byte("{}")))
			if err != nil {
				t.Errorf("count: %v", err)
				return
			}
			var cr serveapi.CountResponse
			err = json.NewDecoder(resp.Body).Decode(&cr)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("count: status %d, %v", resp.StatusCode, err)
				return
			}
			if debug && !hasSpan(cr.Trace, "merge (full)") {
				t.Errorf("debug trace has no full-merge span: %+v", cr.Trace)
			}
			mu.Lock()
			seen = append(seen, cr)
			mu.Unlock()
		}
	}
	wg.Add(3)
	go read(false)
	go read(false)
	go read(true)
	var stopOnce sync.Once
	stop := func() {
		stopOnce.Do(func() { close(done) })
		wg.Wait()
	}
	defer stop()

	part := rng.Intn(p)
	for batch := 0; batch < 12; batch++ {
		var ins, del [][2]int
		for len(ins)+len(del) < 6 {
			u := rng.Intn(60)
			if partOf(u, p) != part {
				continue
			}
			e := [2]int{u, rng.Intn(50)}
			if rng.Intn(2) == 0 {
				ins = append(ins, e)
			} else {
				del = append(del, e)
			}
		}
		// A shard applies a batch's inserts before its deletes.
		for _, e := range ins {
			local.InsertEdge(e[0], e[1])
		}
		for _, e := range del {
			local.DeleteEdge(e[0], e[1])
		}
		mr, err := c.Mutate(ctx, name, serveapi.MutateRequest{Inserts: ins, Deletes: del})
		if err != nil {
			t.Fatalf("%s batch %d: mutate: %v", name, batch, err)
		}
		if mr.Count != local.Count() || mr.Edges != local.NumEdges() {
			t.Fatalf("%s batch %d: mutate count %d and edges %d, local replay %d and %d", name, batch, mr.Count, mr.Edges, local.Count(), local.NumEdges())
		}
		mu.Lock()
		want[mr.Version] = mr.Count
		mu.Unlock()
	}
	stop()

	for _, cr := range seen {
		if w, ok := want[cr.Version]; !ok || cr.Butterflies != w {
			t.Fatalf("%s: concurrent count %d at version %d, local replay %d (known: %v)", name, cr.Butterflies, cr.Version, w, ok)
		}
	}
	if len(seen) == 0 {
		t.Fatalf("%s: no counts completed during the mutations", name)
	}
	t.Logf("%s: %d counts checked across %d versions", name, len(seen), len(want))
}

// hasSpan reports whether a trace tree contains a span called name.
func hasSpan(sp *serveapi.TraceSpan, name string) bool {
	if sp == nil {
		return false
	}
	if sp.Name == name {
		return true
	}
	for i := range sp.Children {
		if hasSpan(&sp.Children[i], name) {
			return true
		}
	}
	return false
}

// TestMergedPinSurvivesDeadShards: once a count has pinned the merged
// reduction, an unchanged graph keeps answering exactly even with
// every shard down — the count is a router-local metadata check.
func TestMergedPinSurvivesDeadShards(t *testing.T) {
	shards := spawnShards(t, 2)
	_, rts := newRouter(t, urlsOf(shards), Config{PartialTimeout: 2 * time.Second})
	c := client.New(rts.URL)
	ctx := context.Background()

	g := mustGen(t)(butterfly.GenerateGnm(70, 50, 500, 31))
	registerInline(t, c, "pin", g, 2)
	exact := g.Count()

	if cr, err := c.Count(ctx, "pin", serveapi.CountRequest{}); err != nil || cr.Butterflies != exact {
		t.Fatalf("priming count = %v/%v, want %d", cr, err, exact)
	}
	for _, ts := range shards {
		ts.Close()
	}
	cr, hdr := countRaw(t, rts.URL, "pin")
	if cr.Butterflies != exact {
		t.Fatalf("count with all shards dead = %d, want %d", cr.Butterflies, exact)
	}
	if hdr.Get("X-Cache") != "merged" {
		t.Errorf("X-Cache = %q, want merged", hdr.Get("X-Cache"))
	}
	// The estimate endpoint rides the same pin.
	er, err := c.Estimate(ctx, "pin", serveapi.EstimateRequest{})
	if err != nil || er.Degraded || er.Estimate != float64(exact) {
		t.Fatalf("estimate with dead shards = %+v/%v, want exact %d", er, err, exact)
	}
}

// TestMutateInvalidatesMergedPin: a mutation through the router must
// drop the pinned reduction so no later count serves the stale answer.
func TestMutateInvalidatesMergedPin(t *testing.T) {
	shards := spawnShards(t, 2)
	_, rts := newRouter(t, urlsOf(shards), Config{})
	c := client.New(rts.URL)
	ctx := context.Background()

	g := mustGen(t)(butterfly.GenerateComplete(6, 6))
	registerInline(t, c, "inv", g, 2)

	before, _ := c.Count(ctx, "inv", serveapi.CountRequest{})
	local := butterfly.NewDynamicCounterFromGraph(g)
	local.DeleteEdge(0, 0)
	if _, err := c.Mutate(ctx, "inv", serveapi.MutateRequest{Deletes: [][2]int{{0, 0}}}); err != nil {
		t.Fatal(err)
	}
	after, err := c.Count(ctx, "inv", serveapi.CountRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Butterflies == before.Butterflies || after.Butterflies != local.Count() {
		t.Fatalf("post-mutate count = %d, want %d (stale pin served?)", after.Butterflies, local.Count())
	}
}

// TestFlightGroupCoalesces: concurrent Do calls on the router's gather
// group with the same key share one execution; once the flight lands
// the key runs afresh.
func TestFlightGroupCoalesces(t *testing.T) {
	var fg flight.Group[gatherOutcome]
	release := make(chan struct{})
	started := make(chan struct{})
	var startOnce sync.Once
	var calls, joins, entered atomic.Int32

	const waiters = 8
	var wg sync.WaitGroup
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		first := i == 0
		go func(first bool) {
			defer wg.Done()
			if !first {
				<-started // ensure the leader's fn is already running
			}
			entered.Add(1)
			out, joined := fg.Do("k", func() gatherOutcome {
				startOnce.Do(func() { close(started) })
				<-release
				calls.Add(1)
				return gatherOutcome{count: 42, live: 2, p: 2}
			})
			if out.count != 42 {
				t.Errorf("outcome count = %d, want 42", out.count)
			}
			if joined {
				joins.Add(1)
			}
		}(first)
	}
	<-started
	// Hold the leader until every waiter has reached Do; the brief
	// sleep covers the gap between the entered bump and the join.
	for entered.Load() < waiters {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if calls.Load() != 1 {
		t.Errorf("fn ran %d times, want 1", calls.Load())
	}
	if joins.Load() != waiters-1 {
		t.Errorf("%d joins, want %d", joins.Load(), waiters-1)
	}

	// After the flight lands, the key is free again: a new call runs.
	out, joined := fg.Do("k", func() gatherOutcome { return gatherOutcome{count: 7} })
	if joined || out.count != 7 {
		t.Errorf("post-flight do = %+v joined=%v, want fresh run of 7", out, joined)
	}
}

// TestRetryDelayBounds: the jittered backoff stays within
// [base/2, 3·base/2) of the linear schedule, and grows with attempts.
func TestRetryDelayBounds(t *testing.T) {
	rt, err := New(Config{Shards: []string{"http://localhost:1"}, RetryBackoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 3; attempt++ {
		base := time.Duration(attempt) * 20 * time.Millisecond
		for i := 0; i < 200; i++ {
			d := rt.retryDelay(attempt)
			if d < base/2 || d >= base/2+base {
				t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, base/2, base/2+base)
			}
		}
	}
}
