package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"butterfly/serveapi"
)

// The serving workloads drive bfserved subprocesses over HTTP. Inputs
// are generated here and sent inline (RegisterRequest.Edges), so the
// servers never generate or read data themselves.

const (
	// Serving inputs are github stand-ins at these scales. At scale 1,
	// registering github seeds the dynamic counter for about 7 s and a
	// cold read costs 0.3–5 s: far too few samples in a ten-second run.
	// At scale 4 a partitioned mutate takes 0.3–0.7 s, about 45 a run.
	readScale    = 8
	writeScale   = 4
	clusterScale = 8

	// readRate is the serve-read arrival rate in requests per second:
	// about 35% of the closed-loop capacity of its mix at github@8 on 2
	// CPUs (about 1290 rps). At 65% the hits' median was set by waits
	// behind cold requests and doubled from one run to the next.
	readRate = 450.0

	// clusterProxiedCounts is how many unpartitioned (proxied) counts
	// follow each partitioned mutate and count in cluster-partitioned.
	clusterProxiedCounts = 8

	// clusterConns is cluster-partitioned's connection count. With two,
	// one connection's hits queue behind the other's gather on the
	// router, and in alternating runs the quartile spread of every
	// timing was 16–22% against 11–12% with one.
	clusterConns = 1
)

// servedInput is one generated graph as the servers receive it.
type servedInput struct {
	g     *graphT
	edges [][2]int
}

func loadInput(name string, scale int) (servedInput, error) {
	g, err := generate(name, scale)
	if err != nil {
		return servedInput{}, err
	}
	return servedInput{g: g, edges: g.Edges()}, nil
}

func (in servedInput) register(name string, partitions int) serveapi.RegisterRequest {
	return serveapi.RegisterRequest{Name: name, M: in.g.NumV1(), N: in.g.NumV2(), Edges: in.edges, Partitions: partitions}
}

// sample is one timed request.
type sample struct {
	class string  // warm, cold, mutate or other
	kind  string  // endpoint
	miss  bool    // serve-read: a never-repeated key
	ms    float64 // latency: from the due time (open loop) or the send
	svcMS float64 // from the send
	lagMS float64 // open loop: how late the request was sent
}

// classOf maps a query response to warm (served from a cache or a
// merged pin) or cold (a kernel or a gather ran).
func classOf(cache string) string {
	switch cache {
	case "hit", "merged":
		return "warm"
	default:
		return "cold"
	}
}

func classSamples(ss []sample, class string) []float64 {
	var out []float64
	for _, s := range ss {
		if class == "" || s.class == class {
			out = append(out, s.ms)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// serve-read

// readReq is one request of the serve-read mix.
type readReq struct {
	kind string // count, vertex-counts, estimate, edge-supports, peel
	body any
	hot  bool
}

// readHotSet is the 32-key hot set: every key is warmed before timing,
// so these requests are cache hits.
func readHotSet() map[string][]readReq {
	hs := map[string][]readReq{}
	add := func(kind string, body any) { hs[kind] = append(hs[kind], readReq{kind: kind, body: body, hot: true}) }
	for _, agg := range []string{"", "sort", "hash", "hist", "batch"} {
		add("count", serveapi.CountRequest{Agg: agg})
	}
	add("count", serveapi.CountRequest{Algorithm: "vertex-priority"})
	for _, side := range []string{"v1", "v2"} {
		for _, top := range []int{5, 10, 50, 100} {
			add("vertex-counts", serveapi.VertexCountsRequest{Side: side, Top: top})
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		add("estimate", serveapi.EstimateRequest{Strategy: "edges", Samples: 256, Seed: seed})
	}
	for _, top := range []int{5, 10, 25, 50, 100} {
		add("edge-supports", serveapi.EdgeSupportsRequest{Top: top})
	}
	for _, k := range []int64{10, 100, 1000} {
		add("peel", serveapi.PeelRequest{Mode: "tip", K: k})
	}
	for _, k := range []int64{1, 2} {
		add("peel", serveapi.PeelRequest{Mode: "wing", K: k})
	}
	return hs
}

// readMiss returns the i-th never-repeated request of a kind: a top, a
// seed or a k no other request carries, so the cache cannot answer it.
func readMiss(kind string, i int) readReq {
	var body any
	switch kind {
	case "vertex-counts":
		body = serveapi.VertexCountsRequest{Side: []string{"v1", "v2"}[i%2], Top: 101 + i}
	case "edge-supports":
		body = serveapi.EdgeSupportsRequest{Top: 101 + i}
	case "estimate":
		body = serveapi.EstimateRequest{Strategy: "edges", Samples: 256, Seed: 1000 + int64(i)}
	case "peel":
		body = serveapi.PeelRequest{Mode: "tip", K: 2000 + int64(i)}
	}
	return readReq{kind: kind, body: body}
}

// readMix is the share of each request kind in serve-read.
var readMix = map[string]float64{"count": 0.3, "vertex-counts": 0.2, "estimate": 0.3, "edge-supports": 0.1, "peel": 0.1}

// readMissShare is the miss probability of a non-count request: only
// the non-count 70% can miss, so they miss at 1/7 to make 10% of all
// requests.
const readMissShare = 0.1 / 0.7

// readShare is the probability the schedule gives a request of this
// kind that is a miss or not.
func readShare(kind string, miss bool) float64 {
	switch {
	case kind == "count" && miss:
		return 0
	case kind == "count":
		return readMix[kind]
	case miss:
		return readMix[kind] * readMissShare
	default:
		return readMix[kind] * (1 - readMissShare)
	}
}

// readQuantile is a quantile of the samples that pass keep, each
// weighted so that every (kind, miss) stratum counts with its scheduled
// share rather than its drawn one. Which kinds a seed happens to draw
// more of then does not move the result.
func readQuantile(ss []sample, keep func(sample) bool, q float64) float64 {
	type stratum struct {
		kind string
		miss bool
	}
	n := map[stratum]float64{}
	for _, s := range ss {
		if keep(s) {
			n[stratum{s.kind, s.miss}]++
		}
	}
	var xs, ws []float64
	for _, s := range ss {
		if keep(s) {
			xs = append(xs, s.ms)
			ws = append(ws, readShare(s.kind, s.miss)/n[stratum{s.kind, s.miss}])
		}
	}
	return weightedQuantile(xs, ws, q)
}

// readJob is one scheduled arrival.
type readJob struct {
	at  time.Duration
	req readReq
}

// readSchedule draws Poisson arrivals at readRate for the timed phase.
// The mix is count 30 / vertex 20 / estimate 30 / edges 10 / peel 10;
// 10% of all requests are misses, spread over the kinds that take a
// top, a seed or a k. missBase offsets the miss keys so a second phase
// never repeats the first one's.
func readSchedule(seed int64, seconds, rate float64, missBase int) []readJob {
	rng := rand.New(rand.NewSource(seed))
	hot := readHotSet()
	kinds := []string{"count", "vertex-counts", "estimate", "edge-supports", "peel"}
	var jobs []readJob
	var t float64
	miss := missBase
	for {
		t += rng.ExpFloat64() / rate
		if t >= seconds {
			return jobs
		}
		x := rng.Float64()
		k := 0
		for x >= readMix[kinds[k]] {
			x -= readMix[kinds[k]]
			k++
		}
		kind := kinds[k]
		req := hot[kind][rng.Intn(len(hot[kind]))]
		if kind != "count" && rng.Float64() < readMissShare {
			req = readMiss(kind, miss)
			miss++
		}
		jobs = append(jobs, readJob{at: time.Duration(t * float64(time.Second)), req: req})
	}
}

// checkRead verifies one serve-read answer against the exact count.
func checkRead(req readReq, body []byte, count int64) error {
	switch req.kind {
	case "count":
		var r serveapi.CountResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Butterflies != count {
			return fmt.Errorf("count %d, want %d", r.Butterflies, count)
		}
	case "vertex-counts":
		var r serveapi.VertexCountsResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Total != 2*count {
			return fmt.Errorf("vertex total %d, want 2×%d", r.Total, count)
		}
	case "edge-supports":
		var r serveapi.EdgeSupportsResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Total != 4*count {
			return fmt.Errorf("edge-support total %d, want 4×%d", r.Total, count)
		}
	case "estimate":
		var r serveapi.EstimateResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if !(r.Estimate > 0) || math.IsInf(r.Estimate, 0) {
			return fmt.Errorf("estimate %v", r.Estimate)
		}
	case "peel":
		var r serveapi.PeelResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Butterflies < 0 || r.Butterflies > count {
			return fmt.Errorf("peeled subgraph has %d butterflies, more than the graph's %d", r.Butterflies, count)
		}
	}
	return nil
}

// serveRead drives one bfserved with dashboard-style reads from an
// open loop: Poisson arrivals at a fixed rate, latency timed from each
// request's due time, at most nproc connections.
func serveRead(w *work) error {
	scale := scaleOr(w.o.smoke, readScale)
	c := newClient(nproc())
	defer c.close()
	var srv *proc
	defer func() { srv.stop() }()

	var in servedInput
	var count int64
	err := w.setups(func(last bool) error {
		var err error
		if in, err = loadInput("github", scale); err != nil {
			return err
		}
		p, err := startServer(w.o.bfserved)
		if err != nil {
			return err
		}
		if count, err = registerAndCount(c, p.base, "github", in, 0); err != nil {
			p.stop()
			return err
		}
		w.res.Attempted += 2
		if last {
			srv = p
		} else {
			p.stop()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if exact, err := countSeq(in.g); err != nil || exact != count {
		w.fail("github@%d: server counted %d at registration, in-process count is %d (%v)", scale, count, exact, err)
	}
	base := srv.base + "/v1/graphs/github/"
	rate := readRate
	if w.o.smoke {
		rate = 50
	}
	w.res.Config = map[string]any{"scale": scale, "rate_rps": rate, "conns": nproc(), "hot_keys": 32, "miss_share": 0.1, "loop": "open"}

	// Warm every hot key so the timed phase finds them cached.
	t0 := time.Now()
	for _, reqs := range readHotSet() {
		for _, req := range reqs {
			r, err := c.do(http.MethodPost, base+req.kind, req.body)
			w.res.Attempted++
			if err != nil || r.status != http.StatusOK {
				w.fail("warm %s: %v status %d", req.kind, err, r.status)
				continue
			}
			if err := checkRead(req, r.body, count); err != nil {
				w.fail("warm %s: %v", req.kind, err)
			}
		}
	}
	warmup := time.Since(t0).Seconds()

	jobs := readSchedule(w.o.seed, float64(w.o.seconds), rate, 0)
	cs := startSampler(newCalib())
	ss, secs := w.openLoop(c, base, jobs, count)
	f := cs.finish()
	all, warm, cold := classSamples(ss, ""), classSamples(ss, "warm"), classSamples(ss, "cold")
	if err := w.require("warm", len(warm), 1000); err != nil {
		return err
	}
	if err := w.require("cold", len(cold), 200); err != nil {
		return err
	}
	isWarm := func(s sample) bool { return s.class == "warm" }
	isCold := func(s sample) bool { return s.class == "cold" }
	// Open loop: the throughput is the arrival rate until the server
	// falls behind, so it is not scaled.
	w.servingMetrics(f, readQuantile(ss, isWarm, 0.5), readQuantile(ss, isCold, 0.5), float64(len(all))/secs, false)
	w.e2e["peak_rss_mb"] = srv.rssMB()
	for _, s := range ss {
		key := s.class + ":" + s.kind + ":hot"
		if s.miss {
			key = s.class + ":" + s.kind + ":miss"
		}
		w.addSamples(key, s.ms)
	}
	d := w.res.Details
	w.tailDetail("warm", warm)
	w.tailDetail("cold", cold)
	d["hit_share"] = float64(len(warm)) / float64(max(1, len(all)))
	d["generator_lag_p99_ms"] = quantile(lags(ss), 0.99)
	for kind := range readMix {
		if ks := filter(ss, func(s sample) bool { return s.class == "cold" && s.kind == kind }); len(ks) > 0 {
			d["cold_p50_ms:"+kind] = median(classSamples(ks, ""))
			d["cold_samples:"+kind] = float64(len(ks))
		}
	}
	d["warmup_s"] = warmup

	if !w.o.trace {
		return nil
	}
	w.tr = newTracer()
	before, _, err := c.scrape(srv.base)
	if err != nil {
		return err
	}
	ts, _ := w.openLoop(c, base, readSchedule(w.o.seed, float64(w.o.seconds), rate, len(jobs)), count)
	after, _, err := c.scrape(srv.base)
	if err != nil {
		return err
	}
	w.layers["bench.trace_overhead_pct"] = overheadPct(w.res.Details["raw_p50_ms"], readQuantile(ts, isWarm, 0.5))
	w.layers["bench.warmup_s"] = warmup
	w.layers["bench.generator_lag_p99_ms"] = quantile(lags(ts), 0.99)
	w.serveLayers(ts, before, after)
	if err := w.scrapeLayer(c, srv.base); err != nil {
		return err
	}

	root := w.tr.begin(nil, "layers")
	defer root.end()
	specs := []dsSpec{{"github", scale}}
	igs, err := internalGraphs(w.tr, root, specs, w.layers)
	if err != nil {
		return err
	}
	probeGraph(w.tr, root, igs, w.layers)
	if got := probeCore(w.tr, root, specs, igs, nproc(), w.layers); got[0] != count {
		w.fail("in-process count %d, want %d", got[0], count)
	}
	if err := probeEstimate(w.tr, root, igs[0], count, w.layers); err != nil {
		return err
	}
	return probePeel(w.tr, root, []*graphT{in.g}, nproc(), w.layers)
}

// openLoop sends each job at its due time from nproc workers; a job
// that finds every worker busy waits, and that wait is in its latency.
// It returns the samples and the seconds from the first due time to the
// last answer, which grow past the schedule when the server falls
// behind.
func (w *work) openLoop(c *client, base string, jobs []readJob, count int64) ([]sample, float64) {
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	out := make([][]sample, nproc())
	var wg sync.WaitGroup
	for k := 0; k < nproc(); k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				job := jobs[i]
				due := start.Add(job.at)
				time.Sleep(time.Until(due))
				sent := time.Now()
				sp := w.tr.begin(nil, "http."+job.req.kind)
				r, err := c.do(http.MethodPost, base+job.req.kind, job.req.body)
				sp.end()
				done := time.Now()
				w.mu.Lock()
				w.res.Attempted++
				switch {
				case err != nil:
					w.fail("%s: %v", job.req.kind, err)
				case r.status != http.StatusOK:
					w.fail("%s: status %d: %s", job.req.kind, r.status, trim(r.body))
				default:
					if err := checkRead(job.req, r.body, count); err != nil {
						w.fail("%s: %v", job.req.kind, err)
					} else {
						out[k] = append(out[k], sample{class: classOf(r.cache), kind: job.req.kind, miss: !job.req.hot,
							ms: ms(done.Sub(due)), svcMS: ms(done.Sub(sent)), lagMS: ms(sent.Sub(due))})
					}
				}
				w.mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all, time.Since(start).Seconds()
}

func filter(ss []sample, keep func(sample) bool) []sample {
	var out []sample
	for _, s := range ss {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

func lags(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.lagMS
	}
	return out
}

// registerAndCount registers in under name and returns the count the
// server answers first.
func registerAndCount(c *client, base, name string, in servedInput, partitions int) (int64, error) {
	var gi serveapi.GraphInfo
	if err := c.postOK(base+"/v1/graphs", in.register(name, partitions), &gi); err != nil {
		return 0, err
	}
	var cr serveapi.CountResponse
	if err := c.postOK(base+"/v1/graphs/"+name+"/count", serveapi.CountRequest{}, &cr); err != nil {
		return 0, err
	}
	return cr.Butterflies, nil
}

// servingMetrics records a serving phase's end-to-end metrics: its two
// latency medians multiplied by the calibration factor f (see calib.go)
// and its throughput divided by it when the loop is closed. The raw
// values go to the details.
func (w *work) servingMetrics(f, p50, cold, perSecond float64, closed bool) {
	d := w.res.Details
	d["raw_p50_ms"], d["raw_cold_p50_ms"], d["raw_throughput_ops"], d["calib_factor"] = p50, cold, perSecond, f
	w.e2e["p50_ms"], w.e2e["cold_p50_ms"] = p50*f, cold*f
	w.e2e["throughput_ops"] = perSecond
	if closed {
		w.e2e["throughput_ops"] = perSecond / f
	}
}

// serveStages are the request stages bfserved records in
// bfserved_stage_seconds.
var serveStages = []string{"parse", "registry", "cache", "admission", "kernel", "render", "mutate"}

// serveLayers derives the serving-layer metrics of a traced phase from
// response headers and the server's histogram deltas.
func (w *work) serveLayers(ss []sample, before, after promSample) {
	var warm, coalesced float64
	for _, s := range ss {
		if s.class == "warm" {
			warm++
		}
	}
	coalesced = delta(before, after, "bfserved_coalesced_total")
	n := float64(max(1, len(ss)))
	w.layers["serve.cache_hit_ratio"] = warm / n
	w.layers["serve.coalesced_ratio"] = coalesced / n
	w.layers["serve.shed_ratio"] = delta(before, after, "bfserved_shed_total") / n
	for _, st := range serveStages {
		w.layers["serve.stage."+st+"_ms"] = meanDeltaMS(before, after, "bfserved_stage_seconds", `stage="`+st+`"`)
	}
	w.layers["serve.server_ms"] = meanDeltaMS(before, after, "bfserved_route_seconds")
	var svc []float64
	for _, s := range ss {
		svc = append(svc, s.svcMS)
	}
	w.layers["bench.client_overhead_ms"] = sum(svc)/n - w.layers["serve.server_ms"]
}

// scrapeLayer times one GET /metrics.
func (w *work) scrapeLayer(c *client, base string) error {
	var size int
	var err error
	d := w.tr.timed(nil, "obsv.scrape", func() { _, size, err = c.scrape(base) })
	w.layers["obsv.scrape_ms"] = ms(d)
	w.layers["obsv.scrape_bytes"] = float64(size)
	return err
}

// ---------------------------------------------------------------------
// serve-write and cluster-partitioned

// mutator makes one connection's mutation batches: 4 inserts of edges
// absent from the graph, then deletes of 2 of its own earlier inserts.
// Connection k only touches V1 vertices u ≡ k (mod conns), so the
// final edge set does not depend on how connections interleave.
type mutator struct {
	g           *graphT
	conn, conns int
	rng         *rand.Rand
	used        map[[2]int]bool
	live        [][2]int
}

func newMutator(g *graphT, conn, conns int, seed int64) *mutator {
	return &mutator{g: g, conn: conn, conns: conns, rng: rand.New(rand.NewSource(seed*1000003 + int64(conn))), used: map[[2]int]bool{}}
}

func (m *mutator) next() (ins, dels [][2]int) {
	slots := (m.g.NumV1() - m.conn + m.conns - 1) / m.conns
	for len(ins) < 4 {
		e := [2]int{m.rng.Intn(slots)*m.conns + m.conn, m.rng.Intn(m.g.NumV2())}
		if m.used[e] || m.g.HasEdge(e[0], e[1]) {
			continue
		}
		m.used[e] = true
		ins = append(ins, e)
	}
	for len(dels) < 2 && len(m.live) > 0 {
		i := m.rng.Intn(len(m.live))
		dels = append(dels, m.live[i])
		m.live[i] = m.live[len(m.live)-1]
		m.live = m.live[:len(m.live)-1]
	}
	m.live = append(m.live, ins...)
	return ins, dels
}

// ledger records what the server acknowledged, for the checks after
// the timed phase.
type ledger struct {
	mu      sync.Mutex
	acked   map[uint64][]int64 // version → counts acknowledged by mutates
	batches []batch
	reads   [][2]int64 // (version, count) answered by counts
}

func newLedger(version uint64, count int64) *ledger {
	return &ledger{acked: map[uint64][]int64{version: {count}}}
}

func (l *ledger) mutated(b batch, count int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.acked[b.version] = append(l.acked[b.version], count)
	l.batches = append(l.batches, b)
}

func (l *ledger) read(version uint64, count int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reads = append(l.reads, [2]int64{int64(version), count})
}

// verify checks every count against the count acknowledged for its
// version (when one was), and the final count against a replay of
// every acknowledged batch.
func (w *work) verify(l *ledger, g *graphT, final int64) error {
	for _, r := range l.reads {
		counts, ok := l.acked[uint64(r[0])]
		if !ok {
			continue
		}
		match := false
		for _, c := range counts {
			match = match || c == r[1]
		}
		if !match {
			w.fail("count %d at version %d, acknowledged %v", r[1], r[0], counts)
		}
	}
	sort.Slice(l.batches, func(i, j int) bool { return l.batches[i].version < l.batches[j].version })
	want, err := probeDynamic(w.tr, nil, g, l.batches, w.layers)
	if err != nil {
		return err
	}
	w.res.Attempted++
	if final != want {
		w.fail("final count %d, local replay of %d batches gives %d", final, len(l.batches), want)
	}
	return nil
}

// closedLoop runs body on conns connections for the timed phase, each
// connection for at least its share of minCycles cycles; a connection
// sends its next request only after the previous answered. It returns
// the samples and the phase's length in seconds.
func (w *work) closedLoop(conns, minCycles int, body func(conn int, clk phaseClock) []sample) ([]sample, float64) {
	start := time.Now()
	clk := w.clock((minCycles + conns - 1) / conns)
	out := make([][]sample, conns)
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			out[k] = body(k, clk)
		}(k)
	}
	wg.Wait()
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all, time.Since(start).Seconds()
}

// timedPost sends one request and decodes a 200 answer into out.
func (w *work) timedPost(c *client, url, kind string, body, out any) (sample, reply, bool) {
	sp := w.tr.begin(nil, "http."+kind)
	t0 := time.Now()
	r, err := c.do(http.MethodPost, url, body)
	d := ms(time.Since(t0))
	sp.end()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.res.Attempted++
	switch {
	case err != nil:
		w.fail("%s: %v", kind, err)
	case r.status != http.StatusOK:
		w.fail("%s: status %d: %s", kind, r.status, trim(r.body))
	default:
		if err := json.Unmarshal(r.body, out); err != nil {
			w.fail("%s: %v", kind, err)
			return sample{}, r, false
		}
		return sample{kind: kind, ms: d, svcMS: d}, r, true
	}
	return sample{}, r, false
}

// writeCycle is one connection's loop of serve-write and
// cluster-partitioned: mutate the graph, read its count, then
// `proxied` counts of a second, never-mutated graph.
func (w *work) writeCycle(c *client, base, graph string, l *ledger, m *mutator, clk phaseClock, proxied string, proxiedCount int64) []sample {
	var out []sample
	for cycles := 0; clk.more(cycles); cycles++ {
		ins, dels := m.next()
		var mr serveapi.MutateResponse
		s, _, ok := w.timedPost(c, base+"/v1/graphs/"+graph+"/mutate", "mutate", serveapi.MutateRequest{Inserts: ins, Deletes: dels}, &mr)
		if !ok {
			continue
		}
		if mr.Inserted != len(ins) || mr.Deleted != len(dels) {
			w.mu.Lock()
			w.fail("mutate applied %d/%d inserts and %d/%d deletes", mr.Inserted, len(ins), mr.Deleted, len(dels))
			w.mu.Unlock()
		}
		l.mutated(batch{version: mr.Version, inserts: ins, deletes: dels}, mr.Count)
		s.class = "mutate"
		out = append(out, s)

		var cr serveapi.CountResponse
		s, r, ok := w.timedPost(c, base+"/v1/graphs/"+graph+"/count", "count", serveapi.CountRequest{}, &cr)
		if ok {
			l.read(cr.Version, cr.Butterflies)
			s.class = classOf(r.cache)
			out = append(out, s)
		}
		for i := 0; proxied != "" && i < clusterProxiedCounts; i++ {
			s, r, ok := w.timedPost(c, base+"/v1/graphs/"+proxied+"/count", "count.proxied", serveapi.CountRequest{}, &cr)
			if !ok {
				continue
			}
			if cr.Butterflies != proxiedCount {
				w.mu.Lock()
				w.fail("proxied count %d, want %d", cr.Butterflies, proxiedCount)
				w.mu.Unlock()
				continue
			}
			s.class = classOf(r.cache)
			out = append(out, s)
		}
	}
	return out
}

// finalCount reads a graph's count after the timed phase.
func finalCount(c *client, base, graph string) (int64, error) {
	var cr serveapi.CountResponse
	err := c.postOK(base+"/v1/graphs/"+graph+"/count", serveapi.CountRequest{}, &cr)
	return cr.Butterflies, err
}

// serveWrite drives one durable bfserved (-fsync always, the shipped
// default) with read-after-write cycles: every mutation publishes a new
// version, so every count after it is a cold read.
func serveWrite(w *work) error {
	scale := scaleOr(w.o.smoke, writeScale)
	c := newClient(nproc())
	defer c.close()
	var srv *proc
	defer func() { srv.stop() }()

	var in servedInput
	var count int64
	setupN := 0
	err := w.setups(func(last bool) error {
		var err error
		if in, err = loadInput("github", scale); err != nil {
			return err
		}
		setupN++
		dir, err := mkTemp(w.scratch, fmt.Sprintf("data%d-", setupN))
		if err != nil {
			return err
		}
		p, err := startServer(w.o.bfserved, "-data-dir", dir, "-fsync", "always")
		if err != nil {
			return err
		}
		if count, err = registerAndCount(c, p.base, "github", in, 0); err != nil {
			p.stop()
			return err
		}
		w.res.Attempted += 2
		if last {
			srv = p
		} else {
			p.stop()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if exact, err := countSeq(in.g); err != nil || exact != count {
		w.fail("github@%d: server counted %d at registration, in-process count is %d (%v)", scale, count, exact, err)
	}
	w.res.Config = map[string]any{"scale": scale, "conns": nproc(), "fsync": "always", "loop": "closed", "batch": "4 inserts + 2 deletes"}

	l := newLedger(1, count)
	muts := make([]*mutator, nproc())
	for k := range muts {
		muts[k] = newMutator(in.g, k, nproc(), w.o.seed)
	}
	phase := func() ([]sample, float64) {
		return w.closedLoop(nproc(), 200, func(k int, clk phaseClock) []sample {
			return w.writeCycle(c, srv.base, "github", l, muts[k], clk, "", 0)
		})
	}
	cs := startSampler(newCalib())
	ss, secs := phase()
	f := cs.finish()
	mut, cold := classSamples(ss, "mutate"), classSamples(ss, "cold")
	if err := w.require("mutate", len(mut), 200); err != nil {
		return err
	}
	if err := w.require("cold", len(cold), 200); err != nil {
		return err
	}
	w.servingMetrics(f, median(mut), median(cold), float64(len(ss))/secs, true)
	w.e2e["peak_rss_mb"] = srv.rssMB()
	w.addSamples("mutate", mut...)
	w.addSamples("cold", cold...)
	d := w.res.Details
	w.tailDetail("mutate", mut)
	w.tailDetail("cold", cold)
	d["hit_share"] = float64(len(classSamples(ss, "warm"))) / float64(max(1, len(ss)-len(mut)))

	var before, after promSample
	var ts []sample
	if w.o.trace {
		w.tr = newTracer()
		if before, _, err = c.scrape(srv.base); err != nil {
			return err
		}
		ts, _ = phase()
		if after, _, err = c.scrape(srv.base); err != nil {
			return err
		}
	}
	final, err := finalCount(c, srv.base, "github")
	if err != nil {
		return err
	}
	if err := w.verify(l, in.g, final); err != nil {
		return err
	}
	if !w.o.trace {
		return nil
	}
	w.layers["bench.trace_overhead_pct"] = overheadPct(w.res.Details["raw_p50_ms"], median(classSamples(ts, "mutate")))
	w.serveLayers(ts, before, after)
	if err := w.scrapeLayer(c, srv.base); err != nil {
		return err
	}
	root := w.tr.begin(nil, "layers")
	defer root.end()
	specs := []dsSpec{{"github", scale}}
	igs, err := internalGraphs(w.tr, root, specs, w.layers)
	if err != nil {
		return err
	}
	probeGraph(w.tr, root, igs, w.layers)
	probeCore(w.tr, root, specs, igs, nproc(), w.layers)
	replayed := l.batches[:min(len(l.batches), 200)]
	if err := probeStore(w.tr, root, filepath.Join(w.scratch, "store-probe"), in.g, count, replayed, w.layers); err != nil {
		return err
	}
	return probeRegistry(w.tr, root, in.g, replayed[:min(len(replayed), 50)], w.layers)
}

// clusterPartitioned drives a router over two shards. The same github
// stand-in is registered twice: split into two partitions and whole.
// Each connection mutates the partitioned graph, counts it, then counts
// the whole graph through the proxied hop several times.
func clusterPartitioned(w *work) error {
	scale := scaleOr(w.o.smoke, clusterScale)
	c := newClient(nproc())
	defer c.close()
	var procs []*proc
	defer func() { stopAll(procs) }()

	var in servedInput
	var pCount, uCount int64
	err := w.setups(func(last bool) error {
		var err error
		if in, err = loadInput("github", scale); err != nil {
			return err
		}
		ps, err := startCluster(w.o.bfserved)
		if err != nil {
			return err
		}
		router := ps[0].base
		pCount, err = registerAndCount(c, router, "gp", in, 2)
		if err == nil {
			uCount, err = registerAndCount(c, router, "gu", in, 0)
		}
		if err != nil {
			stopAll(ps)
			return err
		}
		w.res.Attempted += 4
		if last {
			procs = ps
		} else {
			stopAll(ps)
		}
		return nil
	})
	if err != nil {
		return err
	}
	exact, err := countSeq(in.g)
	if err != nil || exact != pCount || exact != uCount {
		w.fail("github@%d: partitioned count %d, proxied count %d, in-process count %d (%v)", scale, pCount, uCount, exact, err)
	}
	router := procs[0].base
	w.res.Config = map[string]any{"scale": scale, "conns": clusterConns, "shards": 2, "partitions": 2, "loop": "closed",
		"cycle": fmt.Sprintf("mutate + count (partitioned) + %d counts (proxied)", clusterProxiedCounts)}

	l := newLedger(2, pCount) // two partitions at version 1 each
	muts := make([]*mutator, clusterConns)
	for k := range muts {
		muts[k] = newMutator(in.g, k, clusterConns, w.o.seed)
	}
	phase := func() ([]sample, float64) {
		return w.closedLoop(clusterConns, 100, func(k int, clk phaseClock) []sample {
			return w.writeCycle(c, router, "gp", l, muts[k], clk, "gu", uCount)
		})
	}
	scrapeAll := func() ([]promSample, error) {
		out := make([]promSample, len(procs))
		for i, p := range procs {
			s, _, err := c.scrape(p.base)
			if err != nil {
				return nil, err
			}
			out[i] = s
		}
		return out, nil
	}
	cs := startSampler(newCalib())
	ss, secs := phase()
	f := cs.finish()
	warm, cold, mut := classSamples(ss, "warm"), classSamples(ss, "cold"), classSamples(ss, "mutate")
	if err := w.require("warm", len(warm), 500); err != nil {
		return err
	}
	// A partitioned count right after a mutate is usually answered from
	// the merged pin, because the mutate itself re-gathers the partials
	// (delta-synced) to return the exact new count. So the mutate is
	// where the gather runs, and it is the cold operation here.
	if err := w.require("mutate", len(mut), 100); err != nil {
		return err
	}
	w.servingMetrics(f, median(warm), median(mut), float64(len(ss))/secs, true)
	var rss float64
	for _, p := range procs {
		rss += p.rssMB()
	}
	w.e2e["peak_rss_mb"] = rss
	w.addSamples("warm", warm...)
	w.addSamples("cold", cold...)
	w.addSamples("mutate", mut...)
	d := w.res.Details
	d["cold_reads"] = float64(len(cold))
	if len(cold) > 0 {
		d["cold_read_p50_ms"] = median(cold)
	}
	w.tailDetail("warm", warm)
	w.tailDetail("mutate", mut)
	d["router_rss_mb"] = procs[0].rssMB()

	var before, after []promSample
	var ts []sample
	if w.o.trace {
		w.tr = newTracer()
		if before, err = scrapeAll(); err != nil {
			return err
		}
		ts, _ = phase()
		if after, err = scrapeAll(); err != nil {
			return err
		}
	}
	final, err := finalCount(c, router, "gp")
	if err != nil {
		return err
	}
	if err := w.verify(l, in.g, final); err != nil {
		return err
	}
	if !w.o.trace {
		return nil
	}
	w.layers["bench.trace_overhead_pct"] = overheadPct(w.res.Details["raw_p50_ms"], median(classSamples(ts, "warm")))
	return w.clusterLayers(c, procs, ts, before, after, l, uCount)
}

// startCluster starts two shards and a router over them; the router is
// first in the result.
func startCluster(bin string) ([]*proc, error) {
	var shards []*proc
	for i := 0; i < 2; i++ {
		p, err := startServer(bin, "-role", "shard")
		if err != nil {
			stopAll(shards)
			return nil, err
		}
		shards = append(shards, p)
	}
	r, err := startServer(bin, "-role", "router", "-shards", shards[0].base+","+shards[1].base)
	if err != nil {
		stopAll(shards)
		return nil, err
	}
	return append([]*proc{r}, shards...), nil
}

// clusterLayers derives the router and shard metrics of a traced
// phase, measures the proxied hop, and replays one partition's partial
// map in-process.
func (w *work) clusterLayers(c *client, procs []*proc, ts []sample, before, after []promSample, l *ledger, uCount int64) error {
	rb, ra := before[0], after[0]
	// Shard-side serving metrics: the stage histograms of both shards.
	sb, sa := promSample{}, promSample{}
	for i := 1; i < len(procs); i++ {
		for k, v := range before[i] {
			sb[k] += v
		}
		for k, v := range after[i] {
			sa[k] += v
		}
	}
	w.serveLayers(ts, sb, sa)
	w.layers["cluster.shard_ms"] = meanDeltaMS(rb, ra, "bfrouter_shard_seconds")
	hits := delta(rb, ra, "bfrouter_partial_cache_hits_total")
	misses := delta(rb, ra, "bfrouter_partial_cache_misses_total")
	if hits+misses > 0 {
		w.layers["cluster.partial_cache_hit_ratio"] = hits / (hits + misses)
	}
	var partitioned float64
	for _, s := range ts {
		if s.kind == "count" {
			partitioned++
		}
	}
	if partitioned > 0 {
		w.layers["cluster.coalesced_ratio"] = delta(rb, ra, "bfrouter_coalesced_total") / partitioned
	}
	w.layers["cluster.router_rss_mb"] = procs[0].rssMB()
	for _, p := range procs[1:] {
		w.layers["cluster.shard_rss_mb"] += p.rssMB()
	}
	if err := w.scrapeLayer(c, procs[0].base); err != nil {
		return err
	}

	// The hop: the same warm count through the router and straight at
	// the shard that owns the graph. Idle connections are closed first
	// so the probe adds one connection, not one more per host.
	c.close()
	const hopReps = 50
	var viaRouter, direct []float64
	var shard string
	var cr serveapi.CountResponse
	for i := 0; i < hopReps; i++ {
		s, r, ok := w.timedPost(c, procs[0].base+"/v1/graphs/gu/count", "hop.router", serveapi.CountRequest{}, &cr)
		if ok {
			viaRouter = append(viaRouter, s.ms)
			shard = r.shard
		}
	}
	for i := 0; shard != "" && i < hopReps; i++ {
		if s, _, ok := w.timedPost(c, shard+"/v1/graphs/gu/count", "hop.direct", serveapi.CountRequest{}, &cr); ok {
			direct = append(direct, s.ms)
		}
	}
	if len(direct) > 0 {
		w.layers["cluster.hop_ms"] = median(viaRouter) - median(direct)
	}

	// One partition, exported from whichever shard holds it.
	const part = "gp@@p0of2"
	for _, p := range procs[1:] {
		r, err := c.do(http.MethodGet, p.base+"/v1/internal/export/"+part, nil)
		if err != nil || r.status != http.StatusOK {
			continue
		}
		var ex serveapi.ExportResponse
		if err := json.Unmarshal(r.body, &ex); err != nil {
			return err
		}
		pg, err := graphFromEdges(ex.M, ex.N, ex.Edges)
		if err != nil {
			return err
		}
		fr, err := c.do(http.MethodGet, p.base+"/v1/internal/partial/"+part, nil)
		if err != nil || fr.status != http.StatusOK {
			return fmt.Errorf("GET partial of %s: %v status %d", part, err, fr.status)
		}
		root := w.tr.begin(nil, "layers")
		defer root.end()
		if _, err := internalGraphs(w.tr, root, []dsSpec{{"github", scaleOr(w.o.smoke, clusterScale)}}, w.layers); err != nil {
			return err
		}
		return probePartials(w.tr, root, pg, fr.body, partitionBatches(pg, l.batches, 20), w.layers)
	}
	return fmt.Errorf("no shard holds %s", part)
}

// partitionBatches keeps, from the acknowledged batches, the edges
// whose V1 endpoint already has edges in the partition, renumbering the
// versions from 2.
func partitionBatches(pg *graphT, bs []batch, n int) []batch {
	keep := func(es [][2]int) [][2]int {
		var out [][2]int
		for _, e := range es {
			if pg.DegreeV1(e[0]) > 0 {
				out = append(out, e)
			}
		}
		return out
	}
	var out []batch
	for _, b := range bs {
		if len(out) == n {
			break
		}
		ins, dels := keep(b.inserts), keep(b.deletes)
		if len(ins)+len(dels) > 0 {
			out = append(out, batch{version: uint64(len(out) + 2), inserts: ins, deletes: dels})
		}
	}
	return out
}
