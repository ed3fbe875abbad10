package core

// Wedge-aggregation kernels: the four interchangeable ways one exposed
// vertex's wedge multiset {β_z} is materialized before the butterfly
// formula Σ_z C(β_z, 2) is applied.
//
// ParButterfly (Shi & Shun, arXiv:1907.08607) shows that no single
// aggregation strategy dominates: sort-, hash-, histogram- and
// batch-based aggregation each win on different graph shapes. This file
// implements all four behind Options.Agg, mirroring the hybrid
// kernel's hub paths — every mode computes the same integer wedge multiplicities
// over the same restricted partner ranges, so totals are bit-identical
// to the sequential reference regardless of mode, policy or thread
// count (asserted by the cross-mode matrix in agg_test.go).
//
//   - AggHist: the dense per-endpoint counter array with a touched
//     list — the arena-backed fast path this package has always run.
//     Wins when the exposed side is narrow (the counters stay
//     cache-resident) or hub-skewed (the hot counters cluster at the
//     low ids, especially after the degree-ordered relayout).
//   - AggSort: gather every restricted partner id into a flat buffer
//     with bulk copies, LSD-radix-sort it, and count runs. All memory
//     traffic is sequential; no O(width) state. Wins on wide, flat
//     graphs where histogram counters would stride a cold array.
//   - AggHash: an open-addressing table keyed by partner id — the
//     classic map-based path, tightened from Go's map to two flat
//     arrays with Fibonacci hashing. Footprint is O(distinct partners)
//     regardless of side width; wins when partner sets are tiny and
//     the exposed side is huge.
//   - AggBatch: the sort kernel's gather with a fixed-size buffer,
//     flushed through the histogram whenever it fills. Bounds the
//     gather memory on huge hubs (a hub's wedge list can exceed the
//     graph itself) while keeping the sequential-write gather.
//
// AggAuto picks per graph from the degree profile (graph.Profile; max
// degree, mean degree, side widths, skew) — computed once at graph
// build and cached. Neighbor-list segments of split hubs (unitYSeg)
// always aggregate through the histogram regardless of mode: the
// partial-pair export/merge protocol of the reduction phase requires
// the dense accumulator, and a spilled hub is by definition one whose
// partner multiset is too hot for the buffer-based kernels — that is
// AggAuto's per-split-hub-segment choice.

import (
	"fmt"
	"math"
	"runtime"

	"butterfly/internal/graph"
)

// AggPolicy selects the wedge-aggregation kernel.
type AggPolicy int

const (
	// AggAuto (the default) picks per graph from the degree profile:
	// histogram for narrow or hub-skewed exposed sides, hash for huge
	// sparse ones, batch when a single hub's wedge list would dwarf
	// memory, sort otherwise. See ResolveAgg.
	AggAuto AggPolicy = iota
	// AggSort gathers wedge endpoints into a flat buffer, radix-sorts,
	// and counts runs.
	AggSort
	// AggHash aggregates in an open-addressing hash table keyed by
	// partner id.
	AggHash
	// AggHist aggregates in the dense per-endpoint counter array (the
	// classic path).
	AggHist
	// AggBatch gathers into a fixed-size buffer flushed through the
	// histogram, bounding memory on huge hubs.
	AggBatch
)

// String names the policy with the spelling CLIs, wire requests and
// stage attribution use: "auto", "sort", "hash", "hist" or "batch".
func (p AggPolicy) String() string {
	switch p {
	case AggAuto:
		return "auto"
	case AggSort:
		return "sort"
	case AggHash:
		return "hash"
	case AggHist:
		return "hist"
	case AggBatch:
		return "batch"
	default:
		return fmt.Sprintf("AggPolicy(%d)", int(p))
	}
}

// Mode is String, under the name the benchmark's per-mode metrics use.
func (p AggPolicy) Mode() string { return p.String() }

// Valid reports whether p is one of the five policies.
func (p AggPolicy) Valid() bool { return p >= AggAuto && p <= AggBatch }

// Thresholds of the AggAuto chooser and the relayout gate. The values
// were calibrated on the synthetic paper stand-ins;
// docs/PERFORMANCE.md discusses the tradeoffs and the measurements.
const (
	// aggHistWidth is the widest exposed side for which the dense
	// counter array is assumed cache-resident (256 KiB of int32 —
	// roughly an L2).
	aggHistWidth = 1 << 16
	// aggHistSkew keeps the histogram on hub-skewed graphs of any
	// width: when max/mean degree is high, most wedge endpoints land on
	// few hot counters, and the degree-ordered relayout packs exactly
	// those into the first cache lines of the array.
	aggHistSkew = 8.0
	// aggHashRate is the expected-partner-visits-per-exposed-vertex
	// (mean degree product) below which the hash table's O(distinct)
	// footprint beats every array strategy.
	aggHashRate = 8.0
	// aggBatchWork bounds the sort kernel's gather: when a single
	// vertex's wedge list can exceed this (max-degree product), the
	// fixed-buffer batch kernel is chosen instead.
	aggBatchWork = 1 << 22
	// relayoutSkew and relayoutMinEdges gate the automatic
	// degree-ordered relayout: worth an O(|E|) one-time rebuild only
	// when hubs exist to concentrate (skew) and the graph is large
	// enough for locality to matter.
	relayoutSkew     = 4.0
	relayoutMinEdges = 1 << 12
)

// ResolveAgg returns the concrete aggregation mode CountWith will run
// for g under opts — one of AggSort, AggHash, AggHist, AggBatch, never
// AggAuto. Exposed so callers (bfc -json, the serving layer, bfbench)
// can report the mode actually used. The resolution reads only the
// cached degree profile, so it is cheap and stable across calls; it is
// also invariant under the degree-ordered relayout, which preserves
// the degree multiset.
func ResolveAgg(g *graph.Bipartite, opts Options) AggPolicy {
	threads := opts.Threads
	if threads < 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if threads <= 1 && opts.BlockSize > 1 {
		// The blocked variant's two-pass accumulation is inherently
		// histogram-based; Agg selects among kernels for the unblocked
		// sequential and parallel algorithms only.
		return AggHist
	}
	if opts.Agg != AggAuto {
		if !opts.Agg.Valid() {
			panic("core: invalid aggregation policy " + opts.Agg.String())
		}
		return opts.Agg
	}
	inv := opts.Invariant
	if inv == 0 {
		inv = AutoInvariant(g)
	}
	return autoAgg(g.Profile(), inv.PartitionsV2())
}

// autoAgg is the AggAuto decision table over the degree profile of the
// invariant's orientation. exposedV2 reports whether the exposed side
// (the partner id space the aggregation indexes) is V2.
func autoAgg(p graph.DegreeProfile, exposedV2 bool) AggPolicy {
	expW, expMax, expMean, expSkew := p.Side(!exposedV2)
	_, secMax, secMean, _ := p.Side(exposedV2)
	switch {
	case expW <= aggHistWidth:
		return AggHist
	case expSkew >= aggHistSkew:
		return AggHist
	case expMean*secMean <= aggHashRate:
		return AggHash
	case int64(expMax)*int64(secMax) >= aggBatchWork:
		return AggBatch
	default:
		return AggSort
	}
}

// shouldRelayout reports whether CountWith counts on the cached
// degree-ordered twin (graph.DegreeOrdered) instead of g itself. The
// count is invariant under relabeling, so the relayout is invisible at
// every API surface; it only changes which memory the kernels stream.
func shouldRelayout(p graph.DegreeProfile) bool {
	return p.NumEdges >= relayoutMinEdges &&
		(p.SkewV1 >= relayoutSkew || p.SkewV2 >= relayoutSkew)
}

// --- sort kernel ---

// contribSort computes exposed vertex k's contribution by gathering
// every restricted partner id into a flat buffer with bulk copies,
// sorting, and summing C(run, 2) over equal runs. The gather is pure
// sequential reads and appends — no per-wedge random access — which is
// what lets it win on wide flat graphs.
func (kn *kern) contribSort(k int) int64 {
	buf := kn.ws.sbuf[:0]
	k32 := int32(k)
	for _, y := range kn.exposed.Row(k) {
		prow := kn.secondary.Row(int(y))
		if kn.above {
			buf = append(buf, prow[searchInt32(prow, k32+1):]...)
		} else {
			buf = append(buf, prow[:searchInt32(prow, k32)]...)
		}
	}
	kn.ws.sbuf = buf[:0] // keep the grown capacity
	if len(buf) == 0 {
		return 0
	}
	sorted := kn.ws.sortWedges(buf, int32(kn.exposed.R-1))
	var total, run int64
	run = 1
	prev := sorted[0]
	for _, z := range sorted[1:] {
		if z == prev {
			run++
			continue
		}
		total += run * (run - 1) / 2
		prev, run = z, 1
	}
	return total + run*(run-1)/2
}

// sortWedgesCutoff is the buffer length below which insertion sort
// beats the radix passes' fixed cost.
const sortWedgesCutoff = 48

// sortWedges sorts buf ascending and returns the sorted slice (which
// may alias the workspace's radix aux buffer rather than buf). Values
// must lie in [0, maxVal]. Large buffers take an LSD radix sort with
// 8-bit digits and only as many passes as maxVal needs.
func (ws *workspace) sortWedges(buf []int32, maxVal int32) []int32 {
	if len(buf) <= sortWedgesCutoff {
		for i := 1; i < len(buf); i++ {
			v := buf[i]
			j := i - 1
			for j >= 0 && buf[j] > v {
				buf[j+1] = buf[j]
				j--
			}
			buf[j+1] = v
		}
		return buf
	}
	if cap(ws.saux) < len(buf) {
		ws.saux = make([]int32, len(buf))
	}
	src, dst := buf, ws.saux[:len(buf)]
	var count [256]int32
	for shift := uint(0); maxVal>>shift != 0; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, v := range src {
			count[uint8(v>>shift)]++
		}
		var sum int32
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, v := range src {
			d := uint8(v >> shift)
			dst[count[d]] = v
			count[d]++
		}
		src, dst = dst, src
	}
	return src
}

// --- hash kernel ---

// aggHashMinSize is the initial open-addressing table size (a power of
// two); the table doubles at 75% load and persists in the workspace.
const aggHashMinSize = 64

// contribHash aggregates k's restricted wedge multiset in the
// workspace's open-addressing table. The table is cleared slot-by-slot
// from the used list after the flush, so its cost tracks the vertex's
// distinct-partner count, not the table size.
func (kn *kern) contribHash(k int) int64 {
	ws := kn.ws
	if ws.hkey == nil {
		ws.hashInit(aggHashMinSize)
	}
	k32 := int32(k)
	for _, y := range kn.exposed.Row(k) {
		prow := kn.secondary.Row(int(y))
		if kn.above {
			for _, z := range prow[searchInt32(prow, k32+1):] {
				ws.hashAdd(z)
			}
		} else {
			for _, z := range prow {
				if z >= k32 {
					break
				}
				ws.hashAdd(z)
			}
		}
	}
	var total int64
	for _, s := range ws.hused {
		c := int64(ws.hval[s])
		total += c * (c - 1) / 2
		ws.hkey[s] = -1
	}
	ws.hused = ws.hused[:0]
	return total
}

// hashInit allocates the open-addressing arrays at the given
// power-of-two size with every slot empty.
func (ws *workspace) hashInit(size int) {
	ws.hkey = make([]int32, size)
	ws.hval = make([]int32, size)
	for i := range ws.hkey {
		ws.hkey[i] = -1
	}
	if ws.hused == nil {
		ws.hused = make([]int32, 0, size)
	}
}

// hashAdd increments partner z's multiplicity, growing the table at
// 75% load. Fibonacci hashing with linear probing: partner ids are
// dense small ints, which the multiplicative scramble spreads evenly.
func (ws *workspace) hashAdd(z int32) {
	mask := uint32(len(ws.hkey) - 1)
	i := (uint32(z) * 2654435769) & mask
	for {
		switch ws.hkey[i] {
		case z:
			ws.hval[i]++
			return
		case -1:
			if (len(ws.hused)+1)*4 >= len(ws.hkey)*3 {
				ws.hashGrow()
				ws.hashAdd(z)
				return
			}
			ws.hkey[i] = z
			ws.hval[i] = 1
			ws.hused = append(ws.hused, int32(i))
			return
		}
		i = (i + 1) & mask
	}
}

// hashGrow doubles the table, rehashing only the used slots.
func (ws *workspace) hashGrow() {
	oldK, oldV, oldU := ws.hkey, ws.hval, ws.hused
	size := 2 * len(oldK)
	ws.hkey = make([]int32, size)
	ws.hval = make([]int32, size)
	for i := range ws.hkey {
		ws.hkey[i] = -1
	}
	ws.hused = make([]int32, 0, size)
	mask := uint32(size - 1)
	for _, s := range oldU {
		z, c := oldK[s], oldV[s]
		i := (uint32(z) * 2654435769) & mask
		for ws.hkey[i] != -1 {
			i = (i + 1) & mask
		}
		ws.hkey[i], ws.hval[i] = z, c
		ws.hused = append(ws.hused, int32(i))
	}
}

// --- batch kernel ---

// aggBatchSize is the fixed gather-buffer length of the batch kernel:
// 16 KiB of int32 — enough to amortize the drain loop, small enough to
// stay cache-resident next to the histogram's hot counters.
const aggBatchSize = 1 << 12

// contribBatch is the sort kernel's bulk gather bounded by a
// fixed-size buffer: whenever the buffer fills it is drained into the
// dense histogram, so a hub whose wedge list exceeds memory still
// aggregates in O(aggBatchSize) buffer space. The sequential
// gather-then-scatter pattern also overlaps the histogram's random
// writes better than the interleaved classic loop on deep memory
// hierarchies.
func (kn *kern) contribBatch(k int) int64 {
	ws := kn.ws
	if cap(ws.sbuf) < aggBatchSize {
		ws.sbuf = make([]int32, 0, aggBatchSize)
	}
	buf := ws.sbuf[:0]
	acc, touched := ws.acc, ws.touched
	drain := func() {
		// The gathered ids are already restricted: no bound stops it.
		touched = accumulate(acc, touched, buf, math.MaxInt32, false)
		buf = buf[:0]
	}
	k32 := int32(k)
	for _, y := range kn.exposed.Row(k) {
		prow := kn.secondary.Row(int(y))
		var seg []int32
		if kn.above {
			seg = prow[searchInt32(prow, k32+1):]
		} else {
			seg = prow[:searchInt32(prow, k32)]
		}
		for len(seg) > 0 {
			take := aggBatchSize - len(buf)
			if take > len(seg) {
				take = len(seg)
			}
			buf = append(buf, seg[:take]...)
			seg = seg[take:]
			if len(buf) == aggBatchSize {
				drain()
			}
		}
	}
	drain()
	ws.sbuf = buf[:0]
	t := flush(acc, &touched)
	kn.ws.touched = touched
	return t
}
