package cluster

// Router-side partial state: the version-pinned reduction that turns a
// partitioned count on an unchanged graph into a metadata check, and a
// count after a mutation into work proportional to the changed keys.
//
// Each partitioned graph's meta holds one immutable pin set: per
// partition, the wedge-partial map pinned at the (version, epoch) the
// shard stamped on it, plus Σ C(Σ_p β_p, 2) over exactly those maps.
// Gathers send each pinned (version, epoch) as `?since=`/`?epoch=`, so
// an unchanged partition answers with an empty delta frame and a
// mutated one with just its changed keys; the full map travels only on
// the first fetch or after the shard evicted its delta history.
//
// A partition's map is a shared sorted base (the last full frame or
// fold) under a small overlay of the keys changed since. A delta frame
// goes into the overlay and moves the count by C(Σβ+Σδ, 2) − C(Σβ, 2)
// per changed key — the paper's aggregation identity is a sum over V2
// pairs, so nothing else moves. An overlay folds into a fresh base
// once it passes a fixed fraction of it, so the fold's O(pairs) copy
// is amortised O(1) per changed key. The full O(pairs) merge runs only
// on full frames, degraded live-subset reduces and debug scatters.
//
// A gather reads the pin set it starts from and installs its successor
// only if that set is still current (compare-and-swap), so gathers
// racing each other or a re-registration can never install state
// derived from a superseded set, and pins never move backwards.
//
// A generation counter orders cache state against mutations: anything
// that can change a partition's content (partitioned mutate, re-
// registration, rebalance, refresh) bumps the generation, and the
// pinned count answers without shard traffic only when the gather that
// built it started under the current generation — a gather racing a
// mutation can return a pre-mutation answer to its own callers (it
// started first) but can never serve it as current. The generation
// also keys in-flight coalescing, so requests arriving after a
// mutation never join a pre-mutation gather.
//
// The cache is valid precisely because partitioned graphs are only
// written through their owning router (partition names are reserved,
// and docs/CLUSTER.md spells out the single-writer rule). A second
// router pointed at the same shards keeps itself correct the same way
// this one does after restart: its first gather full-fetches and
// re-pins.

import (
	"fmt"
	"slices"
	"sync"

	"butterfly"
	"butterfly/internal/core"
)

// An overlay folds into a fresh base once it holds more entries
// than len(base)/overlayFoldDivisor, and never below overlayFoldFloor,
// so a fold's O(base) copy is paid for by at least that many key
// changes.
const (
	overlayFoldDivisor = 8
	overlayFoldFloor   = 1024
)

func choose2(b int64) int64 { return b * (b - 1) / 2 }

// fenceStride is the spacing of a run's fence index: the index holds
// every fenceStride-th key, so for a 1.5 M-pair base it is under 1 MB
// and stays cache-resident, and a lookup then reads one 16-entry block
// of the run instead of log₂(len) scattered lines.
const fenceStride = 16

// run is a key-sorted slice of partials with its fence index.
type run struct {
	ps    []butterfly.WedgePartial
	fence []uint64
}

func newRun(ps []butterfly.WedgePartial) run {
	r := run{ps: ps, fence: make([]uint64, (len(ps)+fenceStride-1)/fenceStride)}
	for i := range r.fence {
		p := ps[i*fenceStride]
		r.fence[i] = core.PairKey(p.V, p.W)
	}
	return r
}

// find returns the count stored under key k.
func (r run) find(k uint64) (int64, bool) {
	// The block to read is the last whose first key is ≤ k.
	lo, hi := 0, len(r.fence)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.fence[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, false
	}
	for _, p := range r.ps[(lo-1)*fenceStride : min(lo*fenceStride, len(r.ps))] {
		if pk := core.PairKey(p.V, p.W); pk >= k {
			if pk > k {
				break
			}
			return p.Count, true
		}
	}
	return 0, false
}

// mergeRuns merges two key-sorted runs, newer winning on equal keys.
// With dropZero it also drops pairs whose β is zero (folding into a
// base); overlay runs keep them as deletion markers.
func mergeRuns(older, newer []butterfly.WedgePartial, dropZero bool) []butterfly.WedgePartial {
	out := make([]butterfly.WedgePartial, 0, len(older)+len(newer))
	keep := func(p butterfly.WedgePartial) {
		if !dropZero || p.Count != 0 {
			out = append(out, p)
		}
	}
	i, j := 0, 0
	for i < len(older) && j < len(newer) {
		o, n := older[i], newer[j]
		ko, kn := core.PairKey(o.V, o.W), core.PairKey(n.V, n.W)
		switch {
		case ko < kn:
			keep(o)
			i++
		case ko > kn:
			keep(n)
			j++
		default:
			keep(n)
			i, j = i+1, j+1
		}
	}
	for ; i < len(older); i++ {
		keep(older[i])
	}
	for ; j < len(newer); j++ {
		keep(newer[j])
	}
	return out
}

// partPin is one partition's pinned wedge-partial map at (version,
// epoch). Immutable once built. The map is base overlaid by two runs
// holding the absolute β of keys changed since (0 marks a pair that is
// gone): base is the last full frame or fold, shared by every pin
// since; recent absorbs each delta frame; older absorbs recent once
// recent reaches 16·√len(older). A lookup thus reads three fence
// blocks whatever the sizes, and a changed key costs O(√overlay) entry
// copies — few runs matter more than few copies, since a lookup's
// cache misses cost more than a sequential merge.
type partPin struct {
	version, epoch      uint64
	base, older, recent run
}

// beta returns the pinned β of key k: the newest run holding it.
func (pp *partPin) beta(k uint64) int64 {
	if c, ok := pp.recent.find(k); ok {
		return c
	}
	if c, ok := pp.older.find(k); ok {
		return c
	}
	c, _ := pp.base.find(k)
	return c
}

// overlay is the number of entries in the pin's two overlay runs.
func (pp *partPin) overlay() int { return len(pp.older.ps) + len(pp.recent.ps) }

// flatten returns the pin with its overlay folded into a fresh base.
func (pp *partPin) flatten() *partPin {
	if pp.overlay() == 0 {
		return pp
	}
	over := mergeRuns(pp.older.ps, pp.recent.ps, false)
	return &partPin{version: pp.version, epoch: pp.epoch, base: newRun(mergeRuns(pp.base.ps, over, true))}
}

// partFrame is one partition's answer to a gather, applied to its pin.
type partFrame struct {
	kind  string   // full | delta | noop; "" for a partition that failed
	pin   *partPin // the partition's pin after the frame
	delta []butterfly.WedgePartial
	olds  []int64 // delta frames: each delta key's β in the previous pin
}

// staleDeltaError reports a delta frame that drives a pinned β below
// zero: the pin is not the version the delta starts from.
type staleDeltaError struct {
	d    butterfly.WedgePartial
	beta int64
}

func (e *staleDeltaError) Error() string {
	return fmt.Sprintf("delta %+d on pair (%d,%d) drives pinned β %d below zero: stale pin", e.d.Count, e.d.V, e.d.W, e.beta)
}

// advance applies a delta frame (to, epoch, sorted signed changes) to
// the pin. It fails on the stale-pin signal, leaving the pin as is.
func (pp *partPin) advance(to, epoch uint64, delta []butterfly.WedgePartial) (partFrame, error) {
	if len(delta) == 0 {
		if to == pp.version && epoch == pp.epoch {
			return partFrame{kind: "noop", pin: pp}, nil
		}
		return partFrame{kind: "delta", pin: &partPin{version: to, epoch: epoch, base: pp.base, older: pp.older, recent: pp.recent}}, nil
	}
	olds := make([]int64, len(delta))
	changed := make([]butterfly.WedgePartial, len(delta))
	for i, d := range delta {
		olds[i] = pp.beta(core.PairKey(d.V, d.W))
		changed[i] = butterfly.WedgePartial{V: d.V, W: d.W, Count: olds[i] + d.Count}
		if changed[i].Count < 0 {
			return partFrame{}, &staleDeltaError{d: d, beta: olds[i]}
		}
	}
	next := &partPin{version: to, epoch: epoch, base: pp.base, older: pp.older,
		recent: newRun(mergeRuns(pp.recent.ps, changed, false))}
	if r := len(next.recent.ps); r*r >= len(next.older.ps)<<8 {
		next.older, next.recent = newRun(mergeRuns(next.older.ps, next.recent.ps, false)), run{}
	}
	if next.overlay() > max(len(pp.base.ps)/overlayFoldDivisor, overlayFoldFloor) {
		next = next.flatten()
	}
	return partFrame{kind: "delta", pin: next, delta: delta, olds: olds}, nil
}

// fullFrame pins a partition from a full frame: the decoded map is the
// new base.
func fullFrame(version, epoch uint64, partials []butterfly.WedgePartial) partFrame {
	return partFrame{kind: "full", pin: &partPin{version: version, epoch: epoch, base: newRun(partials)}}
}

// pinSet is the router's pinned state of one partitioned graph.
// Immutable once built; a gather builds the next one from frames.
type pinSet struct {
	gen     uint64     // cache generation the gather that built it started under
	parts   []*partPin // per partition; nil until first fetched
	count   int64      // Σ C(Σ_p β_p, 2) over parts at exactly their versions
	counted bool       // count is valid (then every partition is pinned)
}

// part returns partition i's pin, or nil.
func (ps *pinSet) part(i int) *partPin {
	if ps == nil || i >= len(ps.parts) {
		return nil
	}
	return ps.parts[i]
}

// sumVersion is the logical version of the pinned state: the sum of
// the partition versions, as every partitioned answer reports it.
func (ps *pinSet) sumVersion() uint64 {
	var s uint64
	for _, pp := range ps.parts {
		s += pp.version
	}
	return s
}

// reduction is one gather's answer over its live partitions.
type reduction struct {
	count      int64
	sumVersion uint64
	live       int
	kind       string // incremental | full — which reduction ran
}

// reduce builds the pin set that follows ps from one gather's frames
// (a frame with a nil pin is a partition that failed) and answers the
// count over the live partitions. While ps is counted and no frame is
// full, the pinned count moves by C(Σβ+Σδ, 2) − C(Σβ, 2) per changed
// key, and with every partition live that is the answer. A full frame,
// a degraded live subset or a forced full reduce (debug scatters)
// instead flattens the live partitions and merges them in full; the
// flattened pins are kept, so that O(pairs) pass doubles as a fold.
func (ps *pinSet) reduce(gen uint64, frames []partFrame, full bool) (*pinSet, reduction) {
	next := &pinSet{gen: gen, parts: make([]*partPin, len(frames))}
	var red reduction
	incremental := ps != nil && ps.counted && len(ps.parts) == len(frames)
	for i, f := range frames {
		next.parts[i] = ps.part(i)
		if f.pin == nil {
			continue
		}
		next.parts[i] = f.pin
		red.live++
		red.sumVersion += f.pin.version
		if f.kind == "full" {
			incremental = false
		}
	}
	if incremental {
		// A failed partition keeps its pin, so the count stays exact
		// for the pinned versions either way.
		next.count, next.counted = ps.count+next.adjustment(frames), true
	}
	if red.live < len(frames) {
		// The failed partitions were not revalidated: the set is only
		// as current as the one it came from.
		next.gen = 0
		if ps != nil {
			next.gen = ps.gen
		}
	} else if incremental && !full {
		red.kind, red.count = "incremental", next.count
		return next, red
	}
	red.kind = "full"
	live := make([][]butterfly.WedgePartial, 0, red.live)
	for i, f := range frames {
		if f.pin != nil {
			next.parts[i] = f.pin.flatten()
			live = append(live, next.parts[i].base.ps)
		}
	}
	red.count = core.CountFromPartials(live...)
	if red.live == len(frames) {
		next.count, next.counted = red.count, true
	}
	return next, red
}

// adjustment is the count change the delta frames cause: over the
// union of their keys, C(Σβ+Σδ, 2) − C(Σβ, 2), where a partition that
// did not change a key contributes its pinned β to both sums.
func (ps *pinSet) adjustment(frames []partFrame) int64 {
	var keys []uint64
	for _, f := range frames {
		for _, d := range f.delta {
			keys = append(keys, core.PairKey(d.V, d.W))
		}
	}
	if len(keys) == 0 {
		return 0
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	at := make([]int, len(frames))
	var adj int64
	for _, k := range keys {
		var b, d int64
		for p, f := range frames {
			if j := at[p]; j < len(f.delta) && core.PairKey(f.delta[j].V, f.delta[j].W) == k {
				b += f.olds[j]
				d += f.delta[j].Count
				at[p]++
			} else {
				b += ps.parts[p].beta(k)
			}
		}
		adj += choose2(b+d) - choose2(b)
	}
	return adj
}

// partialCache is the per-graph holder of the current pin set. The
// zero value is ready to use.
type partialCache struct {
	mu   sync.Mutex
	gen  uint64
	pins *pinSet
}

// begin returns the generation to gather under and the pin set the
// gather starts from (nil before the first one).
func (pc *partialCache) begin() (uint64, *pinSet) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.gen, pc.pins
}

// generation returns the current invalidation generation.
func (pc *partialCache) generation() uint64 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.gen
}

// merged returns the pinned count when it answers the current graph:
// all p partitions pinned and counted by a gather that started under
// the current generation.
func (pc *partialCache) merged(p int) (count int64, sumVersion uint64, ok bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	ps := pc.pins
	if ps == nil || !ps.counted || ps.gen != pc.gen || len(ps.parts) != p {
		return 0, 0, false
	}
	return ps.count, ps.sumVersion(), true
}

// install replaces from with next, unless from is no longer current —
// another gather installed first, or the cache was cleared — or a pin
// would move backwards within its epoch. It reports whether next was
// installed.
func (pc *partialCache) install(from, next *pinSet) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.pins != from {
		return false
	}
	for i, pp := range next.parts {
		if old := from.part(i); old != nil && pp != nil && old.epoch == pp.epoch && old.version > pp.version {
			return false
		}
	}
	pc.pins = next
	return true
}

// invalidate starts a new generation, so the pinned count stops
// answering without shard traffic. The pins survive — they are
// version-addressed, and the next gather revalidates them by delta.
func (pc *partialCache) invalidate() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.gen++
}

// clear drops every pin (re-registration, membership change). The
// fresh empty set has a new identity, so a gather that started before
// the clear cannot install over it.
func (pc *partialCache) clear() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.gen++
	pc.pins = &pinSet{}
}

// gatherOutcome is the shared result of one scatter-gather (or pinned-
// count hit): everything any waiter needs to render a count or an
// estimate response.
type gatherOutcome struct {
	count      int64
	sumVersion uint64
	live, p    int
	firstErr   error // first partition error when live < p
	fromCache  bool  // answered from the pinned count, no shard traffic
}
