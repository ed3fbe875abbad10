package butterfly

import (
	"fmt"

	"butterfly/internal/dynamic"
)

// DynamicCounter maintains an exact butterfly count under edge
// insertions and deletions — the streaming companion to the static
// family. Each update costs a local sweep of sorted-row intersections
// (the butterflies the touched edge closes) instead of a recount, and
// memory follows the edges held, not the vertex-set sizes.
// StreamEstimator keeps its reservoir sample in the same counter. Not
// safe for concurrent mutation.
type DynamicCounter struct {
	c *dynamic.Counter
}

// NewDynamicCounter returns an empty counter over vertex sets of size
// m and n.
func NewDynamicCounter(m, n int) (*DynamicCounter, error) {
	if m < 0 || n < 0 {
		return nil, fmt.Errorf("butterfly: negative vertex-set size %d/%d", m, n)
	}
	return &DynamicCounter{c: dynamic.New(m, n)}, nil
}

// NewDynamicCounterFromGraph seeds a counter with g's edges. The
// initial count is one static count of g; g is also what Snapshot
// returns until the first mutation.
func NewDynamicCounterFromGraph(g *Graph) *DynamicCounter {
	return &DynamicCounter{c: dynamic.FromGraph(g.g)}
}

// Count returns the current butterfly count.
func (d *DynamicCounter) Count() int64 { return d.c.Count() }

// NumEdges returns the current edge count.
func (d *DynamicCounter) NumEdges() int64 { return d.c.NumEdges() }

// HasEdge reports whether (u, v) is present; out-of-range is false.
func (d *DynamicCounter) HasEdge(u, v int) bool { return d.c.HasEdge(u, v) }

// InsertEdge adds (u, v); it reports whether the edge was new and how
// many butterflies it created. Out-of-range endpoints error.
func (d *DynamicCounter) InsertEdge(u, v int) (added bool, created int64, err error) {
	if u < 0 || u >= d.c.NumV1() || v < 0 || v >= d.c.NumV2() {
		return false, 0, fmt.Errorf("butterfly: edge (%d,%d) out of range %dx%d", u, v, d.c.NumV1(), d.c.NumV2())
	}
	added, created = d.c.InsertEdge(u, v)
	return added, created, nil
}

// DeleteEdge removes (u, v); it reports whether the edge existed and
// how many butterflies it destroyed.
func (d *DynamicCounter) DeleteEdge(u, v int) (removed bool, destroyed int64, err error) {
	if u < 0 || u >= d.c.NumV1() || v < 0 || v >= d.c.NumV2() {
		return false, 0, fmt.Errorf("butterfly: edge (%d,%d) out of range %dx%d", u, v, d.c.NumV1(), d.c.NumV2())
	}
	removed, destroyed = d.c.DeleteEdge(u, v)
	return removed, destroyed, nil
}

// Snapshot materializes the current state as an immutable Graph by
// patching the previous snapshot with the edits made since: an
// O(|V| + |E|) block copy of the untouched rows plus an
// O(touched rows · log) merge of the touched ones. Without net edits
// since the previous snapshot it shares that snapshot's storage.
// Earlier snapshots stay valid and unchanged. Like the mutators,
// Snapshot is not safe concurrently with mutation.
func (d *DynamicCounter) Snapshot() *Graph { return &Graph{g: d.c.Snapshot()} }
