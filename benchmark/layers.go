package main

// layers.go is the only file that names the program's Go entry points:
// the root butterfly API the library workloads drive, and the internal
// packages the traced run times one by one. When those entry points
// are renamed or merged, this file changes and what is measured does
// not.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"butterfly"
	"butterfly/internal/baseline"
	"butterfly/internal/core"
	"butterfly/internal/estimate"
	"butterfly/internal/gen"
	"butterfly/internal/graph"
	"butterfly/internal/serve"
	"butterfly/internal/store"
	"butterfly/serveapi"
)

// graphT is the graph type the workloads hold.
type graphT = butterfly.Graph

func paperDatasets() []string { return butterfly.PaperDatasets() }

// generate builds the named Fig 9 stand-in (scale 1 = paper size) from
// its fixed seed.
func generate(name string, scale int) (*graphT, error) {
	return butterfly.GeneratePaperDataset(name, scale)
}

func graphFromEdges(m, n int, edges [][2]int) (*graphT, error) {
	return butterfly.FromEdges(m, n, edges)
}

// countSeq is the paper's automatically selected family member run
// sequentially.
func countSeq(g *graphT) (int64, error) {
	return g.CountWith(butterfly.CountOptions{Threads: 1})
}

func countPar(g *graphT, threads int) (int64, error) {
	return g.CountWith(butterfly.CountOptions{Threads: threads})
}

// freshView returns the same graph without any of its cached derived
// state (degree profile, degree-ordered twin), so a count on it pays
// what a first count on newly loaded data pays.
func freshView(g *graphT) *graphT { return g.Transposed().Transposed() }

// tipChecksum runs the V1 tip decomposition on the delta engine and
// returns an FNV-1a checksum of the tip numbers and the round count.
func tipChecksum(g *graphT, threads int) (uint64, int, error) {
	tips, st, err := g.TipNumbersWith(butterfly.V1, butterfly.PeelOptions{Engine: butterfly.PeelDelta, Threads: threads})
	if err != nil {
		return 0, 0, err
	}
	return checksum(tips), st.Rounds, nil
}

// wingChecksum runs the wing decomposition on the delta engine and
// returns an FNV-1a checksum of the wing numbers in row-major edge
// order and the round count.
func wingChecksum(g *graphT, threads int) (uint64, int) {
	wings, st := g.WingNumbersWith(butterfly.PeelOptions{Engine: butterfly.PeelDelta, Threads: threads})
	vals := make([]int64, len(wings))
	for i, w := range wings {
		vals[i] = w.Count
	}
	return checksum(vals), st.Rounds
}

func checksum(vals []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// replay is the local oracle for mutating workloads: a dynamic counter
// seeded with the registered graph and fed every acknowledged batch.
type replay struct{ d *butterfly.DynamicCounter }

func newReplay(g *graphT) replay { return replay{butterfly.NewDynamicCounterFromGraph(g)} }

func (r replay) apply(inserts, deletes [][2]int) error {
	for _, e := range inserts {
		if _, _, err := r.d.InsertEdge(e[0], e[1]); err != nil {
			return err
		}
	}
	for _, e := range deletes {
		if _, _, err := r.d.DeleteEdge(e[0], e[1]); err != nil {
			return err
		}
	}
	return nil
}

func (r replay) count() int64 { return r.d.Count() }

func (r replay) snapshot() *graphT { return r.d.Snapshot() }

// batch is one acknowledged mutation batch.
type batch struct {
	version          uint64
	inserts, deletes [][2]int
}

// layerSet collects per-layer metric values by name.
type layerSet map[string]float64

// internalGraphs generates the internal representation of each input
// (the probes below need it); the time lands in gen.generate_s.
func internalGraphs(tr *tracer, parent *activeSpan, specs []dsSpec, out layerSet) ([]*graph.Bipartite, error) {
	gs := make([]*graph.Bipartite, len(specs))
	for i, s := range specs {
		var err error
		d := tr.timed(parent, "gen.generate", func() {
			if s.scale <= 1 {
				gs[i], err = gen.PaperDataset(s.name)
			} else {
				gs[i], err = gen.ScaledPaperDataset(s.name, s.scale)
			}
		})
		if err != nil {
			return nil, err
		}
		out["gen.generate_s"] += d.Seconds()
	}
	return gs, nil
}

// probeGraph times the degree profile and the degree-ordered relayout
// on a fresh view of every graph: the derived state a new graph
// version must rebuild before its first count.
func probeGraph(tr *tracer, parent *activeSpan, gs []*graph.Bipartite, out layerSet) {
	for _, g := range gs {
		f := g.Transposed().Transposed()
		out["graph.profile_us"] += float64(tr.timed(parent, "graph.profile", func() { f.Profile() }).Microseconds())
		out["graph.relayout_ms"] += ms(tr.timed(parent, "graph.relayout", func() { f.DegreeOrdered() }))
	}
}

// probeCore times the counting core: the sequential auto count of every
// graph with its exact wedge work, the parallel count, and, on the
// largest graph, each family member and each aggregation mode. It
// returns the exact counts.
func probeCore(tr *tracer, parent *activeSpan, specs []dsSpec, gs []*graph.Bipartite, threads int, out layerSet) []int64 {
	counts := make([]int64, len(gs))
	var seqTotal, parTotal time.Duration
	var wedges float64
	for i, g := range gs {
		relaid := false
		hook := func(stage string, _ time.Duration) {
			if stage == "core.relayout" {
				relaid = true
			}
		}
		core.CountWith(g, core.Options{Stage: hook}) // warm the cached twin
		var seq, par []float64
		for r := 0; r < 3; r++ {
			seq = append(seq, ms(tr.timed(parent, "core.count", func() { counts[i] = core.CountWith(g, core.Options{Threads: 1}) })))
			par = append(par, ms(tr.timed(parent, "core.count_par", func() { core.CountWith(g, core.Options{Threads: threads}) })))
		}
		out["core.count_ms."+specs[i].name] = median(seq)
		seqTotal += time.Duration(median(seq) * float64(time.Millisecond))
		parTotal += time.Duration(median(par) * float64(time.Millisecond))
		ran := g
		if relaid {
			ran, _, _ = g.DegreeOrdered()
		}
		for _, w := range core.WorkPerVertex(ran, core.AutoInvariant(ran)) {
			wedges += float64(w)
		}
	}
	out["core.wedges"] = wedges
	if wedges > 0 {
		out["core.ns_per_wedge"] = float64(seqTotal.Nanoseconds()) / wedges
	}
	if parTotal > 0 {
		out["core.par_speedup"] = float64(seqTotal) / float64(parTotal)
	}

	big := largest(gs)
	for _, inv := range core.Invariants() {
		name := fmt.Sprintf("core.inv%d_s", int(inv))
		out[name] = tr.timed(parent, "core.invariant", func() { core.Count(big, inv) }).Seconds()
	}
	for _, a := range []core.AggPolicy{core.AggHist, core.AggSort, core.AggHash, core.AggBatch} {
		out["core.agg_"+a.Mode()+"_s"] = tr.timed(parent, "core.agg", func() { core.CountWith(big, core.Options{Threads: 1, Agg: a}) }).Seconds()
	}
	return counts
}

// probeBaselines times the reference counters the family is judged
// against: vertex priority on every graph, sort-aggregate and wedge
// hash on the two smallest.
func probeBaselines(tr *tracer, parent *activeSpan, gs []*graph.Bipartite, threads int, out layerSet) {
	for _, g := range gs {
		out["baseline.vertex_priority_s"] += tr.timed(parent, "baseline.vertex_priority", func() { baseline.CountVertexPriority(g) }).Seconds()
	}
	small := append([]*graph.Bipartite(nil), gs...)
	sort.Slice(small, func(i, j int) bool { return small[i].NumEdges() < small[j].NumEdges() })
	for _, g := range small[:min(2, len(small))] {
		out["baseline.sort_aggregate_s"] += tr.timed(parent, "baseline.sort_aggregate", func() { baseline.CountSortAggregate(g, threads) }).Seconds()
		out["baseline.wedge_hash_s"] += tr.timed(parent, "baseline.wedge_hash", func() { baseline.CountWedgeHash(g) }).Seconds()
	}
}

// probeEstimate times the fixed-size edge-sampling estimator on g and
// reports its relative error against the exact count.
func probeEstimate(tr *tracer, parent *activeSpan, g *graph.Bipartite, exact int64, out layerSet) error {
	const samples = 2048
	var res estimate.Result
	var err error
	d := tr.timed(parent, "estimate.sample", func() {
		res, err = estimate.Sample(g, estimate.Options{Strategy: estimate.StrategyEdges, Samples: samples, Seed: 1})
	})
	if err != nil {
		return err
	}
	out["estimate.us_per_sample"] = float64(d.Microseconds()) / samples
	if exact > 0 {
		rel := (res.Estimate - float64(exact)) / float64(exact)
		if rel < 0 {
			rel = -rel
		}
		out["estimate.rel_err"] = rel
	}
	return nil
}

// probePeel times one tip (V1) and one wing decomposition per graph.
func probePeel(tr *tracer, parent *activeSpan, gs []*graphT, threads int, out layerSet) error {
	for _, g := range gs {
		var rounds int
		var err error
		out["peel.tip_s"] += tr.timed(parent, "peel.tip", func() { _, rounds, err = tipChecksum(g, threads) }).Seconds()
		if err != nil {
			return err
		}
		out["peel.tip_rounds"] += float64(rounds)
		out["peel.wing_s"] += tr.timed(parent, "peel.wing", func() { _, rounds = wingChecksum(g, threads) }).Seconds()
		out["peel.wing_rounds"] += float64(rounds)
	}
	return nil
}

// probeDynamic seeds a dynamic counter with g, applies the batches edge
// by edge, and re-materializes the CSR after each of the first few.
// It returns the final count, the oracle the mutating workloads check
// against.
func probeDynamic(tr *tracer, parent *activeSpan, g *graphT, batches []batch, out layerSet) (int64, error) {
	var rp replay
	out["dynamic.seed_s"] = tr.timed(parent, "dynamic.seed", func() { rp = newReplay(g) }).Seconds()
	var perEdge, snaps []float64
	for i, b := range batches {
		var err error
		d := tr.timed(parent, "dynamic.update", func() { err = rp.apply(b.inserts, b.deletes) })
		if err != nil {
			return 0, err
		}
		if n := len(b.inserts) + len(b.deletes); n > 0 {
			perEdge = append(perEdge, float64(d.Nanoseconds())/1e3/float64(n))
		}
		if i < 8 {
			snaps = append(snaps, ms(tr.timed(parent, "dynamic.snapshot", func() { rp.snapshot() })))
		}
	}
	out["dynamic.update_us"] = median(perEdge)
	out["dynamic.snapshot_ms"] = median(snaps)
	return rp.count(), nil
}

// probeStore appends the register record and the batches to a fresh
// write-ahead log with fsync on every append, the shipped default.
func probeStore(tr *tracer, parent *activeSpan, dir string, g *graphT, count int64, batches []batch, out layerSet) error {
	st, _, err := store.Open(dir, store.Options{Fsync: store.FsyncAlways, CheckpointBytes: -1})
	if err != nil {
		return err
	}
	defer st.Close()
	d := tr.timed(parent, "store.log_register", func() { err = st.LogRegister("g", 1, g, count) })
	if err != nil {
		return err
	}
	out["store.log_register_ms"] = ms(d)
	syncs0, size0 := st.WALSyncs(), st.WALSize()
	var lat []float64
	for _, b := range batches {
		d := tr.timed(parent, "store.log_mutate", func() { err = st.LogMutate("g", b.version, b.inserts, b.deletes, 0, 0) })
		if err != nil {
			return err
		}
		lat = append(lat, float64(d.Microseconds()))
	}
	if n := float64(len(batches)); n > 0 {
		out["store.log_mutate_us"] = median(lat)
		out["store.fsyncs_per_mutate"] = float64(st.WALSyncs()-syncs0) / n
		out["store.wal_bytes_per_mutate"] = float64(st.WALSize()-size0) / n
	}
	return nil
}

// probeRegistry registers g in an in-process serving registry and
// applies the batches through it: the copy-on-write publish path of
// every mutate request, without HTTP.
func probeRegistry(tr *tracer, parent *activeSpan, g *graphT, batches []batch, out layerSet) error {
	reg := serve.NewRegistry()
	var err error
	out["serve.register_s"] = tr.timed(parent, "serve.register", func() { _, err = reg.Register("g", g, false) }).Seconds()
	if err != nil {
		return err
	}
	var lat []float64
	for _, b := range batches {
		d := tr.timed(parent, "serve.mutate", func() { _, err = reg.Mutate("g", b.inserts, b.deletes) })
		if err != nil {
			return err
		}
		lat = append(lat, ms(d))
	}
	out["serve.mutate_ms"] = median(lat)
	return nil
}

// probePartials measures one partition's wedge partial map: the kernel
// that builds it, its wire encoding both ways, and the signed delta a
// mutation batch produces. body is the frame the shard served.
func probePartials(tr *tracer, parent *activeSpan, part *graphT, body []byte, batches []batch, out layerSet) error {
	var ps []butterfly.WedgePartial
	out["core.partials_ms"] = ms(tr.timed(parent, "core.partials", func() { ps = part.WedgePartials() }))
	out["core.partial_keys"] = float64(len(ps))
	out["serveapi.partial_bytes"] = float64(len(body))
	var err error
	out["serveapi.partial_decode_ms"] = ms(tr.timed(parent, "serveapi.partial_decode", func() { _, _, err = serveapi.DecodePartial(body) }))
	if err != nil {
		return fmt.Errorf("decode partial frame: %w", err)
	}
	out["serveapi.partial_encode_ms"] = ms(tr.timed(parent, "serveapi.partial_encode", func() { serveapi.EncodePartial(1, ps) }))

	rp := newReplay(part)
	before := part
	var lat, frame []float64
	for _, b := range batches {
		if err := rp.apply(b.inserts, b.deletes); err != nil {
			return err
		}
		after := rp.snapshot()
		centers := make([]int, 0, len(b.inserts)+len(b.deletes))
		for _, e := range append(append([][2]int(nil), b.inserts...), b.deletes...) {
			centers = append(centers, e[0])
		}
		var delta []butterfly.WedgePartial
		d := tr.timed(parent, "core.partial_delta", func() { delta = butterfly.WedgePartialDelta(before, after, centers) })
		lat = append(lat, float64(d.Nanoseconds())/1e3)
		frame = append(frame, float64(len(serveapi.EncodePartialDelta(b.version-1, b.version, delta))))
		before = after
	}
	out["core.partial_delta_us"] = median(lat)
	out["serveapi.delta_frame_bytes"] = median(frame)
	return nil
}

func largest(gs []*graph.Bipartite) *graph.Bipartite {
	best := gs[0]
	for _, g := range gs[1:] {
		if g.NumEdges() > best.NumEdges() {
			best = g
		}
	}
	return best
}
