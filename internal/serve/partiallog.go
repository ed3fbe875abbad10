package serve

// Shard-side incremental maintenance of the wedge-partial map. Once a
// graph's partials have been exported (the cluster router's first full
// fetch), every mutation batch records the signed partial-map change
// it caused — computed by the wedge-delta kernel over just the touched
// V1 centers, O(affected wedges) — into a bounded per-version log.
// `/v1/internal/partial?since=V` then answers with the composed delta
// (V, current] instead of re-deriving and re-shipping the full map.
//
// The log is lazily activated so single-node deployments pay nothing,
// and bounded (versions × retained pair entries) so a shard that is
// mutated heavily without being polled simply evicts history and falls
// back to a full-map reply. Each activation mints a random nonzero
// epoch token; clients echo it with `?since=` so a graph re-registered
// at a coincidentally matching version can never satisfy a delta
// request from the wrong history.

import (
	"math/rand/v2"

	"butterfly"
)

// Delta-history bounds, package-level so tests can shrink them to
// force eviction. A pair entry is 16 bytes, so the default retained
// history tops out around 16 MiB per graph.
var (
	partialLogMaxVersions = 512
	partialLogMaxPairs    = 1 << 20
)

// partialLog holds the delta history of one registry entry. The entry
// mutex (entry.mu) guards all access — appends happen at publish time
// under it, and reads take it briefly; the composed deltas are small
// compared to a mutation batch.
type partialLog struct {
	epoch uint64 // random nonzero activation token
	base  uint64 // version the oldest retained delta applies to
	// deltas[i] is the signed partial change version base+i → base+i+1.
	deltas [][]butterfly.WedgePartial
	pairs  int // total pair entries retained, for the memory bound
}

func newPartialLog(at uint64) *partialLog {
	pl := &partialLog{base: at}
	for pl.epoch == 0 {
		pl.epoch = rand.Uint64()
	}
	return pl
}

// append records the delta that produced version v. Appends are
// contiguous by construction (both activation and publish hold
// entry.mu); a gap would mean a bug, so it is healed defensively by
// restarting the history at v.
func (pl *partialLog) append(v uint64, delta []butterfly.WedgePartial) {
	if v != pl.base+uint64(len(pl.deltas))+1 {
		pl.base, pl.deltas, pl.pairs = v, nil, 0
		return
	}
	pl.deltas = append(pl.deltas, delta)
	pl.pairs += len(delta)
	for len(pl.deltas) > partialLogMaxVersions || pl.pairs > partialLogMaxPairs {
		pl.pairs -= len(pl.deltas[0])
		pl.deltas[0] = nil
		pl.deltas = pl.deltas[1:]
		pl.base++
	}
}

// since composes the retained deltas taking version `from` to version
// `upto`. ok is false when the history no longer covers that range
// (evicted, or from predates activation) — the caller falls back to a
// full-map reply.
func (pl *partialLog) since(from, upto uint64) ([]butterfly.WedgePartial, bool) {
	if from < pl.base || upto < from || upto > pl.base+uint64(len(pl.deltas)) {
		return nil, false
	}
	run := pl.deltas[from-pl.base : upto-pl.base]
	switch len(run) {
	case 0:
		return nil, true
	case 1:
		return run[0], true
	}
	return butterfly.SumWedgePartialDeltas(run...), true
}

// EnablePartialLog activates delta maintenance for name (idempotent)
// and returns the published snapshot the activation observed together
// with the log's epoch token. The snapshot is loaded under the entry
// mutex, so its version is exactly the log's base on first activation
// — a caller that exports this snapshot's full partials can sync every
// later version by delta.
func (r *Registry) EnablePartialLog(name string) (*Snapshot, uint64, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return nil, 0, ErrNotFound{name}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := e.snap.Load()
	if e.plog == nil {
		e.plog = newPartialLog(snap.Version)
	}
	return snap, e.plog.epoch, nil
}

// PartialDeltaSince returns the composed signed delta that takes
// name's partial map from version `since` to version `upto`. ok is
// false — caller serves a full map instead — when the log is inactive,
// the epoch token does not match (the name was re-registered since the
// client pinned its copy), or the history was evicted.
func (r *Registry) PartialDeltaSince(name string, epoch, since, upto uint64) ([]butterfly.WedgePartial, bool) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return nil, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.plog == nil || e.plog.epoch != epoch {
		return nil, false
	}
	return e.plog.since(since, upto)
}
