package core

import (
	"math"
	"sort"

	"butterfly/internal/bitvec"
	"butterfly/internal/sparse"
)

// This file implements the hybrid intersection kernel: the per-exposed-
// vertex butterfly contribution computed either with the classic sparse
// wedge accumulator or, for dense ("hub") vertices, with bitset
// operations — membership tests against a materialized partner set, and
// word-wise AND + popcount when both sides of an intersection have
// bitsets. Wang et al. 2019's vertex-priority counting motivates giving
// hub rows a different kernel than tail rows; the cost model below picks
// per vertex.
//
// Exactness: every path computes the same integer wedge multiplicities
// β_z = |N(k) ∩ N(z)| over the same restricted partner range, so totals
// are bit-identical to the sequential reference regardless of policy,
// threshold or thread count (asserted by TestHybridKernelExhaustive and
// the quick-check suite in kernel_test.go).

// hubPolicy selects how the hybrid kernel treats dense exposed
// vertices. Counts always run hubAuto; the forced policies let the
// kernel tests pin each path.
type hubPolicy int

const (
	// hubAuto (the zero value) picks per vertex from the cost model:
	// the bitset path is taken when the vertex's exact wedge work
	// exceeds the modeled bitset cost (build + candidate scan).
	hubAuto hubPolicy = iota
	// hubNever forces the sparse accumulator path everywhere —
	// equivalent to an infinite density threshold.
	hubNever
	// hubAlways forces the bitset path wherever a candidate range
	// exists — a zero threshold.
	hubAlways
)

// hubPair is one (partner, wedge-count) export of a split hub segment.
type hubPair struct {
	z int32
	c int32
}

// kernShared is the read-only state one counting run shares between its
// workers: the oriented adjacency, the per-vertex work vector, the
// bitset-path decisions, and the pre-materialized hub bitsets.
type kernShared struct {
	exposed, secondary *sparse.CSR
	above              bool

	// agg is the resolved wedge-aggregation mode (never AggAuto; see
	// agg.go) used by contrib for vertices off the bitset path.
	agg AggPolicy

	// work[k] is the exact restricted wedge work of exposed vertex k
	// (nil when the policy is hubNever and no scheduler needs it).
	work []int64
	// useBits[k] reports whether k takes the bitset path (nil when no
	// vertex does).
	useBits []bool
	// hubBits[z] is the materialized neighbor bitset of dense exposed
	// vertices, used both as B_k for a bitset-path vertex and for
	// word-wise AND + popcount when such a vertex appears as a
	// candidate. nil when no vertex takes the bitset path.
	hubBits []*bitvec.Vector
	anyBits bool
}

// hubBitsDegThreshold returns the minimum degree at which an exposed
// vertex's neighbor set is materialized as a bitset: deg ≥ n/64 means
// the bitset (n/64 words) is no larger than the neighbor list itself,
// floored at 16 so tiny rows never materialize.
func hubBitsDegThreshold(nSec int) int {
	t := nSec / 64
	if t < 16 {
		t = 16
	}
	return t
}

// newKernShared analyses the oriented traversal once. work may be nil,
// in which case it is computed here when the policy needs it. The
// state is returned by value so a sequential count keeps it off the
// heap.
func newKernShared(exposed, secondary *sparse.CSR, above bool, pol hubPolicy, agg AggPolicy, work []int64) kernShared {
	if agg == AggAuto {
		// Callers resolve the policy up front (ResolveAgg); default to
		// the classic path if one forgets.
		agg = AggHist
	}
	ks := kernShared{exposed: exposed, secondary: secondary, above: above, agg: agg, work: work}
	nExp, nSec := exposed.R, secondary.R
	if pol == hubNever || nExp == 0 || nSec == 0 {
		return ks
	}
	if ks.work == nil {
		ks.work = workPerExposed(exposed, secondary, above)
	}

	// Prefix sums of the modeled per-candidate scan cost: a sparse
	// candidate costs its degree (row membership scan against B_k),
	// while a dense candidate — one whose bitset will be materialized —
	// costs only the word count of the AND + popcount.
	var scanCost []int64
	if pol == hubAuto {
		scanCost = make([]int64, nExp+1)
		wordCost := int64((nSec + 63) / 64)
		thresh := hubBitsDegThreshold(nSec)
		for z := 0; z < nExp; z++ {
			c := int64(exposed.RowDeg(z))
			if nSec >= 64 && c >= int64(thresh) && wordCost < c {
				c = wordCost
			}
			scanCost[z+1] = scanCost[z] + c
		}
	}

	useBits := make([]bool, nExp)
	for k := 0; k < nExp; k++ {
		lo, hi := 0, k
		if above {
			lo, hi = k+1, nExp
		}
		if hi <= lo {
			continue
		}
		if pol == hubAlways {
			useBits[k] = true
			ks.anyBits = true
			continue
		}
		// Modeled bitset cost: build + clear B_k (2·deg k), visit every
		// candidate in the restricted range, and scan each candidate
		// (degree or word count, whichever its kernel uses). The sparse
		// path's exact cost is work[k]; take bits when it loses.
		cand := int64(hi - lo)
		costB := 2*int64(exposed.RowDeg(k)) + cand + scanCost[hi] - scanCost[lo]
		if ks.work[k] > costB {
			useBits[k] = true
			ks.anyBits = true
		}
	}
	if !ks.anyBits {
		return ks
	}
	ks.useBits = useBits

	// Materialize neighbor bitsets of dense rows so candidate scans
	// against them become word-wise AND + popcount. Memory is bounded:
	// a bitset costs nSec/8 bytes and is only built for rows of degree
	// ≥ nSec/64, i.e. at most 8 bytes per stored edge in total.
	ks.hubBits = make([]*bitvec.Vector, nExp)
	if nSec >= 64 {
		thresh := hubBitsDegThreshold(nSec)
		for z := 0; z < nExp; z++ {
			if exposed.RowDeg(z) >= thresh {
				b := bitvec.New(nSec)
				for _, y := range exposed.Row(z) {
					b.Set(int(y))
				}
				ks.hubBits[z] = b
			}
		}
	}
	return ks
}

// bitsSplitFunc returns the candidate-range splitter handed to the
// scheduler: for a bitset-path hub the per-candidate contributions are
// additive, so the hub can be split by candidate range with no
// reduction. Returns nil when no vertex takes the bitset path.
func (ks *kernShared) bitsSplitFunc() func(k int) (int, int, bool) {
	if ks.useBits == nil {
		return nil
	}
	nExp := ks.exposed.R
	return func(k int) (int, int, bool) {
		if !ks.useBits[k] {
			return 0, 0, false
		}
		if ks.above {
			return k + 1, nExp, true
		}
		return 0, k, true
	}
}

// kern is one worker's view of a run: the shared state plus a private
// workspace checked out of an arena by the caller, who also returns it.
type kern struct {
	*kernShared
	ws *workspace
}

// worker binds ws to this run. The scratch bitset is all-clear at rest
// (contribBitsRange clears what it sets), so it is only resized when
// its width differs from this run's.
func (ks *kernShared) worker(ws *workspace) kern {
	if ks.anyBits && (ws.bits == nil || ws.bits.Len() != ks.secondary.R) {
		ws.bitset(ks.secondary.R)
	}
	return kern{kernShared: ks, ws: ws}
}

// contrib returns exposed vertex k's butterfly contribution
// Σ_z C(β_z, 2) over its restricted partner range, dispatching between
// the bitset path and the selected aggregation kernel (agg.go).
func (kn *kern) contrib(k int) int64 {
	if kn.useBits != nil && kn.useBits[k] {
		return kn.contribBits(k)
	}
	switch kn.agg {
	case AggSort:
		return kn.contribSort(k)
	case AggHash:
		return kn.contribHash(k)
	case AggBatch:
		return kn.contribBatch(k)
	default:
		return kn.contribSparse(k)
	}
}

// contribSparse is the classic restricted wedge-accumulator path.
func (kn *kern) contribSparse(k int) int64 {
	acc, touched := kn.ws.acc, kn.ws.touched
	for _, y := range kn.exposed.Row(k) {
		touched = accumulate(acc, touched, kn.secondary.Row(int(y)), int32(k), kn.above)
	}
	t := flush(acc, &touched)
	kn.ws.touched = touched
	return t
}

// accumulate is the restricted wedge accumulation of update (18), the
// one loop every histogram path runs: each partner z in the sorted row
// prow with z > k (above) or z < k (below) gets acc[z]++, and a z seen
// for the first time is appended to touched. Below k the scan stops at
// the first partner ≥ k; above k one search skips to the first partner
// > k. It returns the grown touched list.
func accumulate(acc, touched, prow []int32, k int32, above bool) []int32 {
	end := k
	if above {
		prow = prow[searchInt32(prow, k+1):]
		end = math.MaxInt32
	}
	for _, z := range prow {
		if z >= end {
			break
		}
		if acc[z] == 0 {
			touched = append(touched, z)
		}
		acc[z]++
	}
	return touched
}

// flush sums C(acc[z], 2) over the touched list and resets it.
func flush(acc []int32, touched *[]int32) int64 {
	var t int64
	for _, z := range *touched {
		c := int64(acc[z])
		t += c * (c - 1) / 2
		acc[z] = 0
	}
	*touched = (*touched)[:0]
	return t
}

// searchInt32 returns the first index in the sorted slice s whose value
// is ≥ x.
func searchInt32(s []int32, x int32) int {
	// Small rows dominate; a linear scan beats binary search below a
	// threshold and falls back to sort.Search above it.
	if len(s) <= 16 {
		for i, v := range s {
			if v >= x {
				return i
			}
		}
		return len(s)
	}
	return sort.Search(len(s), func(i int) bool { return s[i] >= x })
}

// contribBits is the bitset path over k's full restricted range.
func (kn *kern) contribBits(k int) int64 {
	if kn.above {
		return kn.contribBitsRange(k, k+1, kn.exposed.R)
	}
	return kn.contribBitsRange(k, 0, k)
}

// contribBitsRange computes Σ_z C(β_z, 2) for candidates z ∈ [zlo, zhi)
// with bitset operations: β_z is a word-wise AND + popcount when z has a
// materialized bitset, otherwise a membership scan of z's row against
// B_k. Per-candidate contributions are additive, so candidate ranges of
// one hub can be processed by different workers with no reduction.
func (kn *kern) contribBitsRange(k, zlo, zhi int) int64 {
	bk := kn.hubBits[k]
	scratch := bk == nil
	if scratch {
		bk = kn.ws.bits
		for _, y := range kn.exposed.Row(k) {
			bk.Set(int(y))
		}
	}
	var total int64
	for z := zlo; z < zhi; z++ {
		var beta int64
		if hb := kn.hubBits[z]; hb != nil {
			beta = int64(bk.IntersectionCount(hb))
		} else {
			for _, y := range kn.exposed.Row(z) {
				if bk.Get(int(y)) {
					beta++
				}
			}
		}
		total += beta * (beta - 1) / 2
	}
	if scratch {
		for _, y := range kn.exposed.Row(k) {
			bk.Clear(int(y))
		}
	}
	return total
}

// segPairs runs the restricted sparse accumulation for neighbor-list
// segment [ylo, yhi) of hub k and exports the partial wedge counts.
// C(β, 2) is not additive across segments, so the counts must be merged
// by reducePairs before the butterfly formula is applied.
func (kn *kern) segPairs(k, ylo, yhi int) []hubPair {
	acc, touched := kn.ws.acc, kn.ws.touched
	for _, y := range kn.exposed.Row(k)[ylo:yhi] {
		touched = accumulate(acc, touched, kn.secondary.Row(int(y)), int32(k), kn.above)
	}
	out := make([]hubPair, len(touched))
	for i, z := range touched {
		out[i] = hubPair{z: z, c: acc[z]}
		acc[z] = 0
	}
	kn.ws.touched = touched[:0]
	return out
}

// reducePairs merges the partial wedge counts of one split hub and
// applies Σ_z C(β_z, 2). Summing the integer partials reconstructs the
// exact multiset a single-worker accumulation would have produced.
func (kn *kern) reducePairs(segs [][]hubPair) int64 {
	acc, touched := kn.ws.acc, kn.ws.touched
	for _, seg := range segs {
		for _, p := range seg {
			if acc[p.z] == 0 {
				touched = append(touched, p.z)
			}
			acc[p.z] += p.c
		}
	}
	t := flush(acc, &touched)
	kn.ws.touched = touched
	return t
}
