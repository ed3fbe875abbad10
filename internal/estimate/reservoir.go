// Package estimate is the approximate-answer tier. It owns all three
// estimators for a registered graph — vertex sampling and edge
// sampling (adaptive, with error bars) and sparsification (Sanei-Mehri
// et al., KDD'18) — behind Sample, and fixed-memory reservoir
// estimation over edge streams (the FLEET family, arXiv:1812.03398),
// whose sample is a dynamic.Counter. The root package's
// EstimateOptions and EstimateResult are this package's Options and
// Result, and the serving layer answers /v1/estimate from it.
package estimate

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"butterfly/internal/dynamic"
)

// slot is one reservoir cell. dup marks a stream element whose (u,v)
// pair was already present in the reservoir when it entered: it holds a
// cell (keeping the sample uniform over stream *elements*) but is not
// inserted into the sample a second time.
type slot struct {
	u, v int32
	dup  bool
}

// Reservoir is a fixed-budget streaming butterfly estimator. It keeps a
// uniform sample of at most Cap stream edges in a dynamic.Counter, so
// the butterfly count of the sampled subgraph is maintained
// *incrementally* — every insert and evict applies the counter's
// per-edge delta — and a snapshot is O(1), not a recount. At any point
// the stream count is estimated by scaling with the inverse
// probability that all four edges of a butterfly survived together,
//
//	p₄ = Π_{i=0..3} (R − i) / (N − i)
//
// for reservoir capacity R and N stream edges seen; with N ≤ R the
// estimate is exact and the error bars collapse to zero.
//
// The standard error reported by Snapshot starts from the binomial
// term Var ≈ c·(1−p₄)/p₄² and adds the covariance of butterfly pairs
// that share edges (pairs sharing a wedge co-survive with probability
// p₆, pairs sharing one edge with p₇ — far above p₄², so ignoring them
// badly understates the variance on skewed graphs). The pair counts
// are measured on the reservoir subgraph and scaled up by their own
// survival probabilities; see docs/ALGORITHMS.md for the derivation.
// The pair pass costs O(Σ deg²) over the (small) reservoir and is
// cached per stream position, so repeated snapshots between batches
// are O(1). Memory is O(R) regardless of stream length. All methods
// are safe for concurrent use.
type Reservoir struct {
	mu  sync.Mutex
	cap int

	seen  int64
	slots []slot
	g     *dynamic.Counter // the distinct edges of the non-duplicate slots
	rng   *rand.Rand

	// Cached variance pass: valid while (seen, count) are unchanged.
	varSeen   int64
	varCount  int64
	varStdErr float64
}

// ReservoirSnapshot is a consistent point-in-time view of the
// estimator. Exact reports whether the whole stream still fits the
// reservoir (estimate is the true count, error bars are zero).
type ReservoirSnapshot struct {
	Estimate      float64
	StdErr        float64
	CI95          float64 // 1.96 · StdErr (95% half-width)
	EdgesSeen     int64
	ReservoirSize int // distinct edges currently held
	Capacity      int
	Butterflies   int64 // exact count inside the reservoir subgraph
	Exact         bool
}

// NewReservoir returns an estimator over vertex sets of size m and n
// with the given edge capacity. The capacity must be at least 4 — a
// butterfly has four edges — and the estimator is deterministic given
// the seed.
func NewReservoir(m, n, capacity int, seed int64) (*Reservoir, error) {
	if m < 0 || n < 0 {
		return nil, fmt.Errorf("estimate: negative vertex-set size %d/%d", m, n)
	}
	if capacity < 4 {
		return nil, fmt.Errorf("estimate: reservoir capacity %d < 4 cannot hold a butterfly", capacity)
	}
	return &Reservoir{
		cap:   capacity,
		slots: make([]slot, 0, capacity),
		g:     dynamic.New(m, n),
		rng:   rand.New(rand.NewSource(seed)),
	}, nil
}

// Seen returns the number of stream edges consumed so far.
func (r *Reservoir) Seen() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen
}

// Add feeds the next stream edge. Out-of-range endpoints are an error
// and leave the estimator unchanged.
func (r *Reservoir) Add(u, v int) error {
	if err := r.check(u, v); err != nil {
		return err
	}
	r.mu.Lock()
	r.add(int32(u), int32(v))
	r.mu.Unlock()
	return nil
}

// AddBatch feeds a batch of stream edges atomically with respect to
// Snapshot. The whole batch is validated before any edge is applied, so
// an error means the estimator state did not change.
func (r *Reservoir) AddBatch(edges [][2]int) error {
	for _, e := range edges {
		if err := r.check(e[0], e[1]); err != nil {
			return err
		}
	}
	r.mu.Lock()
	for _, e := range edges {
		r.add(int32(e[0]), int32(e[1]))
	}
	r.mu.Unlock()
	return nil
}

// check rejects an edge outside the vertex sets.
func (r *Reservoir) check(u, v int) error {
	if m, n := r.g.NumV1(), r.g.NumV2(); u < 0 || u >= m || v < 0 || v >= n {
		return fmt.Errorf("estimate: stream edge (%d,%d) out of range %dx%d", u, v, m, n)
	}
	return nil
}

func (r *Reservoir) add(u, v int32) {
	r.seen++
	if len(r.slots) < r.cap {
		r.place(len(r.slots), u, v)
		r.slots = r.slots[:len(r.slots)+1]
		return
	}
	// Classic reservoir replacement: keep with probability cap/seen.
	j := r.rng.Int63n(r.seen)
	if j >= int64(r.cap) {
		return
	}
	r.evict(int(j))
	r.place(int(j), u, v)
}

// place writes the new edge into slot i (which must already be
// vacated) and adds it to the sample, whose counter applies the
// butterflies it closes. An edge already in the sample marks the slot
// a duplicate instead.
func (r *Reservoir) place(i int, u, v int32) {
	added, _ := r.g.InsertEdge(int(u), int(v))
	r.slots[:cap(r.slots)][i] = slot{u: u, v: v, dup: !added}
}

// evict removes slot i's edge from the sample, whose counter subtracts
// the butterflies it closed. Duplicate slots vacate without touching
// the sample.
func (r *Reservoir) evict(i int) {
	if e := r.slots[i]; !e.dup {
		r.g.DeleteEdge(int(e.u), int(e.v))
	}
}

// Snapshot returns a consistent view of the estimator: safe to call
// concurrently with Add/AddBatch, O(1) work.
func (r *Reservoir) Snapshot() ReservoirSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	count := r.g.Count()
	snap := ReservoirSnapshot{
		EdgesSeen:     r.seen,
		ReservoirSize: int(r.g.NumEdges()),
		Capacity:      r.cap,
		Butterflies:   count,
	}
	if r.seen <= int64(r.cap) {
		snap.Estimate = float64(count)
		snap.Exact = true
		return snap
	}
	p4 := r.survival(4)
	snap.Estimate = float64(count) / p4
	if r.varSeen != r.seen || r.varCount != count {
		r.varStdErr = r.stdErr(p4)
		r.varSeen, r.varCount = r.seen, count
	}
	snap.StdErr = r.varStdErr
	snap.CI95 = 1.96 * snap.StdErr
	return snap
}

// survival returns p_k = Π_{i=0..k−1} (R − i) / (N − i): the
// probability that k specific distinct stream edges are all in the
// reservoir together.
func (r *Reservoir) survival(k int64) float64 {
	p := 1.0
	for i := int64(0); i < k; i++ {
		p *= float64(int64(r.cap)-i) / float64(r.seen-i)
	}
	return p
}

// stdErr estimates the standard error of the scaled count. Writing T
// for the true stream count, P1/P2 for the number of butterfly pairs
// sharing exactly one/two edges, and c ~ observed reservoir count:
//
//	Var(c) = T·p₄(1−p₄) + 2P1(p₇−p₄²) + 2P2(p₆−p₄²)
//
// (two distinct butterflies share at most two edges, and a shared edge
// pair is always a wedge). T, P1 and P2 are estimated from the
// reservoir by inverse-probability scaling: T ≈ c/p₄, P2 ≈ q2/p₆,
// P1 ≈ (sₑ − 2q2)/p₇, where q2 and sₑ are the shared-wedge pair count
// and Σₑ C(supportₑ, 2) measured on the reservoir subgraph. The
// negative covariance of disjoint pairs (p₈ < p₄²) is ignored, making
// the bars slightly conservative.
func (r *Reservoir) stdErr(p4 float64) float64 {
	c := float64(r.g.Count())
	if c < 1 {
		c = 1 // a zero observed count still has sampling uncertainty
	}
	q2, se := r.pairStats()
	p6, p7 := r.survival(6), r.survival(7)
	varC := c * (1 - p4)
	if p7 > 0 {
		if p1 := se - 2*q2; p1 > 0 {
			varC += 2 * p1 * (p7 - p4*p4) / p7
		}
	}
	if p6 > 0 && q2 > 0 {
		varC += 2 * q2 * (p6 - p4*p4) / p6
	}
	return math.Sqrt(varC) / p4
}

// pairStats walks the reservoir subgraph and returns q2 — the number
// of butterfly pairs sharing a wedge — and se = Σₑ C(supportₑ, 2),
// which counts pairs sharing one edge once and pairs sharing two edges
// twice. A wedge centered at a V2 vertex with V1 endpoints (u,w) is
// contained in β_uw − 1 butterflies (β_uw = common-neighbor count), so
// the pair's β_uw wedges contribute β·C(β−1, 2); V1-centered wedges
// symmetrically via γ_vx.
func (r *Reservoir) pairStats() (q2, se float64) {
	rowsU, rowsV := r.g.Rows()
	beta := make(map[int64]int32) // V1-pair -> common V2 neighbors
	for _, us := range rowsV {
		for i := 0; i < len(us); i++ {
			for j := i + 1; j < len(us); j++ {
				beta[pairKey(us[i], us[j])]++
			}
		}
	}
	for _, b := range beta {
		q2 += float64(b) * choose2(int64(b)-1)
	}
	gamma := make(map[int64]int32) // V2-pair -> common V1 neighbors
	for _, vs := range rowsU {
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				gamma[pairKey(vs[i], vs[j])]++
			}
		}
	}
	for _, g := range gamma {
		q2 += float64(g) * choose2(int64(g)-1)
	}
	for u, vs := range rowsU {
		for _, v := range vs {
			var sup int64
			for _, w := range rowsV[v] {
				if w == u {
					continue
				}
				sup += int64(beta[pairKey(u, w)]) - 1
			}
			se += choose2(sup)
		}
	}
	return q2, se
}

func pairKey(a, b int32) int64 {
	if a > b {
		a, b = b, a
	}
	return int64(a)<<32 | int64(uint32(b))
}

func choose2(n int64) float64 {
	if n < 2 {
		return 0
	}
	return float64(n) * float64(n-1) / 2
}
