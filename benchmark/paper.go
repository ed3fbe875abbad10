package main

import (
	"runtime"
	"time"
)

// paperScale1 is the paper's Fig 10/11 measurement at the sizes where
// its findings are claimed: exact counts of the five Fig 9 stand-ins
// through the root API, sequentially, at Threads = nproc, and on a
// fresh view of each graph (a first count: degree profile, relayout
// and kernel). No HTTP is involved.
func paperScale1(w *work) error {
	scale := scaleOr(w.o.smoke, 1)
	names := paperDatasets()
	w.calib = newCalib()
	gs, err := w.librarySetups(names, scale)
	if err != nil {
		return err
	}
	w.res.Config = map[string]any{"scale": scale, "threads_par": nproc(), "datasets": names, "setup_repeats": setupRepeats}

	s, err := w.paperLoop(names, gs, scale)
	if err != nil {
		return err
	}
	var parN, parMS float64
	for _, n := range names {
		parN += float64(len(s["par:"+n]))
		parMS += sum(s["par:"+n])
	}
	w.e2e["p50_ms"] = sumQuantiles(names, s, "seq", 0.5)
	w.e2e["cold_p50_ms"] = sumQuantiles(names, s, "cold", 0.5)
	w.e2e["throughput_ops"] = parN / (parMS / 1000)
	w.e2e["peak_rss_mb"] = selfRSSMB()
	d := w.res.Details
	d["count_s"] = w.e2e["p50_ms"] / 1000
	d["count_par_s"] = sumQuantiles(names, s, "par", 0.5) / 1000
	d["cold_count_s"] = w.e2e["cold_p50_ms"] / 1000
	d["count_p90_ms"] = sumQuantiles(names, s, "seq", 0.9)
	d["cold_count_p90_ms"] = sumQuantiles(names, s, "cold", 0.9)
	d["raw_count_s"] = sumQuantiles(names, s, "raw:seq", 0.5) / 1000
	for _, n := range names {
		for _, class := range []string{"seq", "par", "cold"} {
			d[class+"_median_ms:"+n] = median(s[class+":"+n])
		}
	}
	w.keepSamples(s)

	if !w.o.trace {
		return nil
	}
	w.tr = newTracer()
	ts, err := w.paperLoop(names, gs, scale)
	if err != nil {
		return err
	}
	w.layers["bench.trace_overhead_pct"] = overheadPct(w.e2e["p50_ms"], sumQuantiles(names, ts, "seq", 0.5))
	w.layers["bench.warmup_s"] = w.e2e["setup_s"]
	specs := make([]dsSpec, len(names))
	for i, n := range names {
		specs[i] = dsSpec{n, scale}
	}
	root := w.tr.begin(nil, "layers")
	defer root.end()
	igs, err := internalGraphs(w.tr, root, specs, w.layers)
	if err != nil {
		return err
	}
	probeGraph(w.tr, root, igs, w.layers)
	counts := probeCore(w.tr, root, specs, igs, nproc(), w.layers)
	for i, c := range counts {
		w.checkPaperCount(names[i], scale, c)
	}
	probeBaselines(w.tr, root, igs, nproc(), w.layers)
	big := 0
	for i, g := range igs {
		if g.NumEdges() > igs[big].NumEdges() {
			big = i
		}
	}
	return probeEstimate(w.tr, root, igs[big], counts[big], w.layers)
}

// librarySetups generates the five stand-ins and counts each once (the
// warm-up count builds the degree-ordered twin, so relayout time lands
// in set-up, as it does for a user), setupRepeats times.
func (w *work) librarySetups(names []string, scale int) ([]*graphT, error) {
	var gs []*graphT
	err := w.setups(func(last bool) error {
		gs = nil
		runtime.GC() // the previous round's graphs are garbage
		cur := make([]*graphT, len(names))
		for i, n := range names {
			g, err := generate(n, scale)
			if err != nil {
				return err
			}
			c, err := countSeq(g)
			if err != nil {
				return err
			}
			w.res.Attempted++
			w.checkPaperCount(n, scale, c)
			cur[i] = g
		}
		gs = cur
		return nil
	})
	return gs, err
}

// paperSamples holds per-call latencies in ms, keyed "<class>:<dataset>"
// (scaled to the quiet reference machine) and "raw:<class>:<dataset>".
type paperSamples map[string][]float64

// add records a call that took d while the calibration kernel took
// refMS.
func (s paperSamples) add(key string, d time.Duration, refMS float64) {
	s[key] = append(s[key], scaled(ms(d), refMS))
	s["raw:"+key] = append(s["raw:"+key], ms(d))
}

// paperLoop repeats rounds — for each stand-in a sequential count, a
// parallel count and a count on a fresh view, then one run of the
// calibration kernel — for the timed phase and at least 5 rounds.
func (w *work) paperLoop(names []string, gs []*graphT, scale int) (paperSamples, error) {
	s := paperSamples{}
	clk := w.clock(5)
	rounds := 0
	prev := ms(w.calib.run())
	for clk.more(rounds) {
		for i, g := range gs {
			n := names[i]
			ops := []struct {
				class string
				run   func() (int64, error)
			}{
				{"seq", func() (int64, error) { return countSeq(g) }},
				{"par", func() (int64, error) { return countPar(g, nproc()) }},
				{"cold", func() (int64, error) { return countSeq(freshView(g)) }},
			}
			var took [3]time.Duration
			for k, op := range ops {
				var c int64
				var err error
				runtime.GC() // no collection left over from the previous call
				took[k] = w.tr.timed(nil, "paper.count_"+op.class+":"+n, func() { c, err = op.run() })
				if err != nil {
					return nil, err
				}
				w.res.Attempted++
				w.checkPaperCount(n, scale, c)
			}
			next := ms(w.calib.run())
			for k, op := range ops {
				s.add(op.class+":"+n, took[k], (prev+next)/2)
			}
			s["calib_ms"] = append(s["calib_ms"], next)
			prev = next
		}
		rounds++
	}
	if err := w.require("paper rounds", rounds, 5); err != nil {
		return nil, err
	}
	return s, nil
}

// keepSamples stores the raw samples in the result.
func (w *work) keepSamples(s paperSamples) {
	for k, xs := range s {
		w.addSamples(k, xs...)
	}
	w.res.Details["calib_median_ms"] = median(s["calib_ms"])
}

func sumQuantiles(names []string, s paperSamples, class string, q float64) float64 {
	var t float64
	for _, n := range names {
		t += quantile(s[class+":"+n], q)
	}
	return t
}

// checkPaperCount compares a count with its pinned oracle (scale 1) or,
// at other scales, with the first count seen for that stand-in.
func (w *work) checkPaperCount(name string, scale int, got int64) {
	want, ok := int64(0), false
	if scale == 1 {
		want, ok = paperCounts[name]
	} else {
		want, ok = w.seenCount(name, got)
	}
	if !ok || got != want {
		w.fail("%s@%d: count %d, want %d", name, scale, got, want)
	}
}

// seenCount returns the first count recorded under key, recording got
// if there is none yet.
func (w *work) seenCount(key string, got int64) (int64, bool) {
	if w.seen == nil {
		w.seen = map[string]int64{}
	}
	if v, ok := w.seen[key]; ok {
		return v, true
	}
	w.seen[key] = got
	return got, true
}

// peelScale1 is the paper's Section IV at scale 1: the V1 tip and the
// wing decomposition of every Fig 9 stand-in on the delta engine with
// one worker per CPU, checked against pinned checksums.
func peelScale1(w *work) error {
	scale := scaleOr(w.o.smoke, 1)
	names := paperDatasets()
	w.calib = newCalib()
	gs, err := w.librarySetups(names, scale)
	if err != nil {
		return err
	}
	w.res.Config = map[string]any{"scale": scale, "threads": nproc(), "engine": "delta", "datasets": names, "min_passes": 3}

	s, err := w.peelLoop(names, gs, scale, 3)
	if err != nil {
		return err
	}
	var ops, totalMS float64
	for _, n := range names {
		for _, mode := range []string{"tip", "wing"} {
			xs := s[mode+":"+n]
			w.res.Details[mode+"_median_ms:"+n] = median(xs)
			ops += float64(len(xs))
			totalMS += sum(xs)
		}
	}
	decompose := sumQuantiles(names, s, "tip", 0.5) + sumQuantiles(names, s, "wing", 0.5)
	w.e2e["p50_ms"] = decompose
	// Every decomposition computes its supports from scratch: there is
	// no warm path, so the cold metric is the same number.
	w.e2e["cold_p50_ms"] = decompose
	w.e2e["throughput_ops"] = ops / (totalMS / 1000)
	w.e2e["peak_rss_mb"] = selfRSSMB()
	w.res.Details["decompose_s"] = decompose / 1000
	w.res.Details["raw_decompose_s"] = (sumQuantiles(names, s, "raw:tip", 0.5) + sumQuantiles(names, s, "raw:wing", 0.5)) / 1000
	w.keepSamples(s)

	if !w.o.trace {
		return nil
	}
	w.tr = newTracer()
	ts, err := w.peelLoop(names, gs, scale, 1)
	if err != nil {
		return err
	}
	w.layers["bench.trace_overhead_pct"] = overheadPct(decompose, sumQuantiles(names, ts, "tip", 0.5)+sumQuantiles(names, ts, "wing", 0.5))
	w.layers["bench.warmup_s"] = w.e2e["setup_s"]
	w.layers["peel.tip_s"] = sumQuantiles(names, ts, "raw:tip", 0.5) / 1000
	w.layers["peel.wing_s"] = sumQuantiles(names, ts, "raw:wing", 0.5) / 1000
	w.layers["peel.tip_rounds"] = w.res.Details["tip_rounds"]
	w.layers["peel.wing_rounds"] = w.res.Details["wing_rounds"]
	specs := make([]dsSpec, len(names))
	for i, n := range names {
		specs[i] = dsSpec{n, scale}
	}
	root := w.tr.begin(nil, "layers")
	defer root.end()
	igs, err := internalGraphs(w.tr, root, specs, w.layers)
	if err != nil {
		return err
	}
	probeGraph(w.tr, root, igs, w.layers)
	return nil
}

// peelLoop runs decomposition passes until the timed phase is over and
// at least minPasses passes are done, timing the calibration kernel
// after every decomposition.
func (w *work) peelLoop(names []string, gs []*graphT, scale, minPasses int) (paperSamples, error) {
	s := paperSamples{}
	clk := w.clock(minPasses)
	passes := 0
	prev := ms(w.calib.run())
	for clk.more(passes) {
		var tipRounds, wingRounds int
		for i, g := range gs {
			n := names[i]
			for _, mode := range []string{"tip", "wing"} {
				var sum uint64
				var rounds int
				var err error
				runtime.GC()
				d := w.tr.timed(nil, "peel."+mode+":"+n, func() {
					if mode == "tip" {
						sum, rounds, err = tipChecksum(g, nproc())
					} else {
						sum, rounds = wingChecksum(g, nproc())
					}
				})
				if err != nil {
					return nil, err
				}
				w.res.Attempted++
				w.checkPeel(mode, n, scale, sum)
				if mode == "tip" {
					tipRounds += rounds
				} else {
					wingRounds += rounds
				}
				next := ms(w.calib.run())
				s.add(mode+":"+n, d, (prev+next)/2)
				s["calib_ms"] = append(s["calib_ms"], next)
				prev = next
			}
		}
		w.res.Details["tip_rounds"] = float64(tipRounds)
		w.res.Details["wing_rounds"] = float64(wingRounds)
		passes++
	}
	return s, nil
}

func (w *work) checkPeel(mode, name string, scale int, got uint64) {
	key := mode + ":" + name
	if scale == 1 {
		if want, ok := peelChecksums[key]; !ok || got != want {
			w.fail("%s@%d %s decomposition checksum %016x, want %016x", name, scale, mode, got, want)
		}
		return
	}
	if want, _ := w.seenCount(key, int64(got)); uint64(want) != got {
		w.fail("%s@%d %s decomposition checksum %016x differs between passes", name, scale, mode, got)
	}
}

// overheadPct is the traced-run slowdown of a latency, in percent.
func overheadPct(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return (traced - untraced) / untraced * 100
}
