package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"butterfly"
	"butterfly/internal/core"
)

// shardModel is one partition as its shard serves it: the wedge-partial
// map at every version a pin may still ask a delta from, and the
// partial-log epoch.
type shardModel struct {
	epoch   uint64
	version uint64
	history map[uint64]map[uint64]int64
}

func (s *shardModel) current() map[uint64]int64 { return s.history[s.version] }

// mutate publishes a new version with a few random β changes.
func (s *shardModel) mutate(rng *rand.Rand, keyspace, changes int) {
	next := make(map[uint64]int64, len(s.current())+changes)
	for k, c := range s.current() {
		next[k] = c
	}
	for i := 0; i < changes; i++ {
		k := uint64(rng.Intn(keyspace))<<32 | uint64(rng.Intn(keyspace))
		if c := next[k] + int64(rng.Intn(7)-3); c > 0 {
			next[k] = c
		} else {
			delete(next, k)
		}
	}
	s.version++
	s.history[s.version] = next
}

// sortedPartials is a map's sorted wedge-partial form.
func sortedPartials(m map[uint64]int64) []butterfly.WedgePartial {
	out := make([]butterfly.WedgePartial, 0, len(m))
	for k, c := range m {
		v, w := core.SplitPairKey(k)
		out = append(out, butterfly.WedgePartial{V: v, W: w, Count: c})
	}
	slices.SortFunc(out, func(a, b butterfly.WedgePartial) int {
		ka, kb := core.PairKey(a.V, a.W), core.PairKey(b.V, b.W)
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		}
		return 0
	})
	return out
}

// deltaBetween is the signed frame a shard composes from version old
// to its current map.
func deltaBetween(cur, old map[uint64]int64) []butterfly.WedgePartial {
	d := make(map[uint64]int64)
	for k, c := range cur {
		if c != old[k] {
			d[k] = c - old[k]
		}
	}
	for k, c := range old {
		if _, ok := cur[k]; !ok {
			d[k] = -c
		}
	}
	return sortedPartials(d)
}

// TestPinSetProperty drives the pin set alone, with no HTTP, through
// seeded random sequences of delta gathers, full-frame rebases (cold
// pins, evicted history, epoch changes), overlay folds, stale deltas
// and live-subset reduces. After every step the maintained count must
// equal MergeWedgePartials over freshly materialised shard maps, every
// pin must hold exactly the map of its version, and no pin may move
// backwards.
func TestPinSetProperty(t *testing.T) {
	const keyspace = 64
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 + p)))
			shards := make([]*shardModel, p)
			for i := range shards {
				shards[i] = &shardModel{epoch: 1, history: map[uint64]map[uint64]int64{0: {}}}
				shards[i].mutate(rng, keyspace, 2000)
			}
			var pc partialCache
			var incremental, folds, stale, degraded int
			for step := 0; step < 300; step++ {
				for _, s := range shards {
					switch r := rng.Intn(150); {
					case r == 0: // shard restart: a new partial-log epoch
						s.epoch++
					case r < 75:
						s.mutate(rng, keyspace, 1+rng.Intn(400))
						pc.invalidate() // as the router does after a mutate
					}
				}
				gen, from := pc.begin()
				debug := rng.Intn(60) == 0
				dead := -1 // an unreachable partition
				if p > 1 && rng.Intn(30) == 0 {
					dead = rng.Intn(p)
				}
				frames := make([]partFrame, p)
				live := 0
				for i, s := range shards {
					if i == dead {
						continue
					}
					live++
					pin := from.part(i)
					if pin == nil || pin.epoch != s.epoch || rng.Intn(200) == 0 {
						frames[i] = fullFrame(s.version, s.epoch, sortedPartials(s.current()))
						continue
					}
					delta := deltaBetween(s.current(), s.history[pin.version])
					if len(pin.base.ps) > 0 && rng.Intn(50) == 0 {
						// A delta from some other version: drive a pinned
						// pair below zero and expect the stale-pin signal.
						bad := pin.base.ps[rng.Intn(len(pin.base.ps))]
						bad.Count = -pin.beta(core.PairKey(bad.V, bad.W)) - 1
						_, err := pin.advance(s.version, s.epoch, mergeRuns(delta, []butterfly.WedgePartial{bad}, false))
						var se *staleDeltaError
						if !errors.As(err, &se) {
							t.Fatalf("step %d part %d: stale delta not rejected: %v", step, i, err)
						}
						stale++
						frames[i] = fullFrame(s.version, s.epoch, sortedPartials(s.current()))
						continue
					}
					fr, err := pin.advance(s.version, s.epoch, delta)
					if err != nil {
						t.Fatalf("step %d part %d: advance: %v", step, i, err)
					}
					if len(fr.delta) > 0 && fr.pin.overlay() == 0 {
						folds++
					}
					frames[i] = fr
				}

				next, red := from.reduce(gen, frames, debug)
				var want [][]butterfly.WedgePartial
				for i, s := range shards {
					if frames[i].pin != nil {
						want = append(want, sortedPartials(s.current()))
					}
				}
				if got, exp := red.count, butterfly.MergeWedgePartials(want...); got != exp {
					t.Fatalf("step %d (%s, live %d/%d): count %d, want %d", step, red.kind, live, p, got, exp)
				}
				if red.live != live {
					t.Fatalf("step %d: live %d, want %d", step, red.live, live)
				}
				if live < p {
					degraded++
					if from != nil && next.gen != from.gen {
						t.Fatalf("step %d: degraded reduce moved the set from generation %d to %d", step, from.gen, next.gen)
					}
				} else if !next.counted || next.count != red.count {
					t.Fatalf("step %d: all-live reduce: counted=%v count %d, answer %d", step, next.counted, next.count, red.count)
				}
				if red.kind == "incremental" {
					incremental++
					if debug {
						t.Fatalf("step %d: debug scatter reduced incrementally", step)
					}
				}

				var pinned [][]butterfly.WedgePartial
				for i, pp := range next.parts {
					if pp == nil {
						continue
					}
					old := from.part(i)
					if old != nil && old.epoch == pp.epoch && pp.version < old.version {
						t.Fatalf("step %d part %d: pin moved back from v%d to v%d", step, i, old.version, pp.version)
					}
					m := sortedPartials(shards[i].history[pp.version])
					if got := pp.flatten().base.ps; !slices.Equal(got, m) {
						t.Fatalf("step %d part %d: pin v%d holds %d pairs, shard map has %d", step, i, pp.version, len(got), len(m))
					}
					for k := 0; k < 16 && len(m) > 0; k++ {
						e := m[rng.Intn(len(m))]
						if got := pp.beta(core.PairKey(e.V, e.W)); got != e.Count {
							t.Fatalf("step %d part %d: β(%d,%d) = %d, want %d", step, i, e.V, e.W, got, e.Count)
						}
					}
					pinned = append(pinned, m)
				}
				if next.counted && next.count != butterfly.MergeWedgePartials(pinned...) {
					t.Fatalf("step %d: pinned count %d, merge of pinned maps %d", step, next.count, butterfly.MergeWedgePartials(pinned...))
				}
				if !pc.install(from, next) {
					t.Fatalf("step %d: install from the current set refused", step)
				}
				if from != nil && pc.install(from, &pinSet{}) {
					t.Fatalf("step %d: install from a superseded set accepted", step)
				}
				// The pinned count may answer alone only while it is the
				// shards' current count.
				c, v, ok := pc.merged(p)
				if live == p && !ok {
					t.Fatalf("step %d: all-live gather did not pin its count", step)
				}
				if ok {
					var cur [][]butterfly.WedgePartial
					var sum uint64
					for _, s := range shards {
						cur = append(cur, sortedPartials(s.current()))
						sum += s.version
					}
					if exp := butterfly.MergeWedgePartials(cur...); c != exp || v != sum {
						t.Fatalf("step %d: pinned count %d at v%d answers alone, shards hold %d at v%d", step, c, v, exp, sum)
					}
				}
				// History below a pinned version is never asked for again.
				for i, pp := range next.parts {
					if pp != nil {
						for v := range shards[i].history {
							if v < pp.version {
								delete(shards[i].history, v)
							}
						}
					}
				}
			}
			t.Logf("%d incremental reduces, %d folds, %d stale deltas, %d degraded reduces", incremental, folds, stale, degraded)
			if incremental == 0 || folds == 0 || stale == 0 || (p > 1 && degraded == 0) {
				t.Errorf("coverage: %d incremental, %d folds, %d stale, %d degraded", incremental, folds, stale, degraded)
			}
		})
	}
}

// TestPartialCacheGeneration: the pinned count answers only under the
// generation its gather started in, and a clear gives the cache a new
// identity that a gather begun earlier cannot install over.
func TestPartialCacheGeneration(t *testing.T) {
	var pc partialCache
	gen, from := pc.begin()
	next, _ := from.reduce(gen, []partFrame{
		fullFrame(1, 9, []butterfly.WedgePartial{{V: 0, W: 1, Count: 3}}),
		fullFrame(1, 9, []butterfly.WedgePartial{{V: 0, W: 1, Count: 1}}),
	}, false)
	if !pc.install(from, next) {
		t.Fatal("first install refused")
	}
	if c, v, ok := pc.merged(2); !ok || c != 6 || v != 2 {
		t.Fatalf("merged = %d v%d %v, want 6 v2 true", c, v, ok)
	}
	pc.invalidate()
	if _, _, ok := pc.merged(2); ok {
		t.Fatal("pinned count answered after invalidate")
	}
	gen, from = pc.begin()
	pc.clear()
	later, _ := from.reduce(gen, []partFrame{{kind: "noop", pin: from.parts[0]}, {kind: "noop", pin: from.parts[1]}}, false)
	if pc.install(from, later) {
		t.Fatal("gather begun before clear installed over it")
	}
	backwards := &pinSet{parts: []*partPin{{version: 0, epoch: 9}}}
	_, from = pc.begin()
	if !pc.install(from, next) || pc.install(next, backwards) {
		t.Fatal("a pin moved backwards within its epoch")
	}
}

// BenchmarkRouterDeltaSync applies a ~600-key delta (300 keys in each
// of two partitions) to pinned partition maps of two sizes: the cost
// per delta — pin lookups, overlay runs, amortised folds and the count
// adjustment — should not grow with the map.
func BenchmarkRouterDeltaSync(b *testing.B) {
	for _, pairs := range []int{150_000, 1_500_000} {
		b.Run(fmt.Sprintf("pairs=%d", pairs), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			const p, keysPerPart = 2, 300
			frames := make([]partFrame, p)
			for i := range frames {
				base := make([]butterfly.WedgePartial, pairs)
				for j := range base {
					base[j] = butterfly.WedgePartial{V: int32(j / 1000), W: int32(j % 1000), Count: 1 + int64(rng.Intn(4))}
				}
				frames[i] = fullFrame(1, 1, base)
			}
			ps, _ := (*pinSet)(nil).reduce(0, frames, false)
			// Fresh random keys every delta: a key the overlay already
			// holds is found early, one it lacks costs a base search.
			delta := func() []butterfly.WedgePartial {
				keys := make(map[uint64]int64, keysPerPart)
				for len(keys) < keysPerPart {
					j := rng.Intn(pairs)
					keys[uint64(j/1000)<<32|uint64(j%1000)] = 1
				}
				return sortedPartials(keys)
			}
			deltas := make([][]butterfly.WedgePartial, p)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				for i := range deltas {
					deltas[i] = delta()
				}
				b.StartTimer()
				for i, pp := range ps.parts {
					fr, err := pp.advance(pp.version+1, 1, deltas[i])
					if err != nil {
						b.Fatal(err)
					}
					frames[i] = fr
				}
				var red reduction
				ps, red = ps.reduce(0, frames, false)
				if red.kind != "incremental" {
					b.Fatalf("reduction ran %s", red.kind)
				}
			}
		})
	}
}
