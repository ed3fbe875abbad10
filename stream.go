package butterfly

import (
	"fmt"

	"butterfly/internal/estimate"
)

// StreamEstimator approximates the butterfly count of an edge stream
// with a fixed-size uniform reservoir (the FLEET family, Sanei-Mehri
// et al.): memory stays O(reservoir) regardless of stream length, and
// the estimate is unbiased for duplicate-free streams (exact while the
// reservoir still fits the whole stream). The reservoir subgraph is
// held in the same incremental counter DynamicCounter uses, so its
// butterfly count is maintained edge by edge and snapshots are cheap;
// the O(1)-memory companion to DynamicCounter, for streams too large
// to keep. Safe for concurrent use.
type StreamEstimator struct {
	r *estimate.Reservoir
}

// StreamSnapshot is a consistent point-in-time view of a
// StreamEstimator: the estimate, its error bars, and the reservoir
// bookkeeping. Exact reports whether the whole stream still fits the
// reservoir (the estimate is the true count and the error bars are
// zero).
type StreamSnapshot struct {
	Estimate      float64
	StdErr        float64
	CI95          float64 // 1.96 · StdErr
	EdgesSeen     int64
	ReservoirSize int
	Capacity      int
	Exact         bool
}

// NewStreamEstimator returns an estimator over vertex sets of size m
// and n. reservoir must be at least 4 (a butterfly's edge count).
func NewStreamEstimator(m, n, reservoir int, seed int64) (*StreamEstimator, error) {
	r, err := estimate.NewReservoir(m, n, reservoir, seed)
	if err != nil {
		return nil, fmt.Errorf("butterfly: %w", err)
	}
	return &StreamEstimator{r: r}, nil
}

// Add feeds the next stream edge.
func (e *StreamEstimator) Add(u, v int) error {
	if err := e.r.Add(u, v); err != nil {
		return fmt.Errorf("butterfly: %w", err)
	}
	return nil
}

// AddBatch feeds a batch of edges atomically with respect to Snapshot.
// The batch is validated before any edge is applied.
func (e *StreamEstimator) AddBatch(edges [][2]int) error {
	if err := e.r.AddBatch(edges); err != nil {
		return fmt.Errorf("butterfly: %w", err)
	}
	return nil
}

// Seen returns the number of edges consumed.
func (e *StreamEstimator) Seen() int64 { return e.r.Seen() }

// Estimate returns the current butterfly estimate for the whole
// stream.
func (e *StreamEstimator) Estimate() float64 { return e.r.Snapshot().Estimate }

// Snapshot returns the estimate together with its error bars and
// reservoir bookkeeping.
func (e *StreamEstimator) Snapshot() StreamSnapshot {
	s := e.r.Snapshot()
	return StreamSnapshot{
		Estimate:      s.Estimate,
		StdErr:        s.StdErr,
		CI95:          s.CI95,
		EdgesSeen:     s.EdgesSeen,
		ReservoirSize: s.ReservoirSize,
		Capacity:      s.Capacity,
		Exact:         s.Exact,
	}
}
