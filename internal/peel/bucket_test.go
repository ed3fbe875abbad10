package peel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// bucketQueue unit tests: lazy decrease + batch extraction must drain
// ids in nondecreasing key order with exactly-once extraction, across
// re-bases of the radix buckets.
func TestBucketQueueDrainsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 500
	keys := make([]int64, n)
	alive := make([]bool, n)
	for i := range keys {
		keys[i] = int64(rng.Intn(1000)) // spans radix buckets 0–10
		alive[i] = true
	}
	q := newBucketQueue(keys, alive)
	seen := make([]bool, n)
	var lastLevel int64 = -1
	total := 0
	var batch []int64
	for {
		var level int64
		var ok bool
		batch, level, ok = q.nextBatch(batch[:0], alive)
		if !ok {
			break
		}
		if level < lastLevel {
			t.Fatalf("level regressed: %d after %d", level, lastLevel)
		}
		lastLevel = level
		for _, id := range batch {
			if seen[id] {
				t.Fatalf("id %d extracted twice", id)
			}
			seen[id] = true
			if keys[id] > level {
				t.Fatalf("id %d extracted at level %d with key %d", id, level, keys[id])
			}
			total++
		}
	}
	if total != n {
		t.Fatalf("extracted %d of %d ids", total, n)
	}
}

// Keys decreased between batches must be honored: an id whose key drops
// to the current level cascades into the same level's sub-rounds.
func TestBucketQueueCascadeWithinLevel(t *testing.T) {
	keys := []int64{0, 5, 9}
	alive := []bool{true, true, true}
	q := newBucketQueue(keys, alive)
	batch, level, ok := q.nextBatch(nil, alive)
	if !ok || level != 0 || len(batch) != 1 || batch[0] != 0 {
		t.Fatalf("first batch: %v level %d ok %v", batch, level, ok)
	}
	// Peeling id 0 drops id 2's key to the current level; it must
	// cascade into level 0.
	keys[2] = 0
	q.update(2)
	batch, level, ok = q.nextBatch(batch[:0], alive)
	if !ok || level != 0 || len(batch) != 1 || batch[0] != 2 {
		t.Fatalf("cascade batch: %v level %d ok %v", batch, level, ok)
	}
	batch, level, ok = q.nextBatch(batch[:0], alive)
	if !ok || level != 5 || len(batch) != 1 || batch[0] != 1 {
		t.Fatalf("final batch: %v level %d ok %v", batch, level, ok)
	}
	if _, _, ok = q.nextBatch(batch[:0], alive); ok {
		t.Fatal("queue should be exhausted")
	}
}

// Decreases that keep an id in the bucket of its current entry file
// nothing: a thousand single-step decreases of every key leave at most
// one entry per id and bucket, and the queue still drains in order.
func TestBucketQueueFilesOncePerBucket(t *testing.T) {
	n := 200
	keys := make([]int64, n)
	alive := make([]bool, n)
	for i := range keys {
		keys[i] = 1<<20 + int64(i)
		alive[i] = true
	}
	q := newBucketQueue(keys, alive)
	for step := 0; step < 1000; step++ {
		for id := range keys {
			keys[id]--
			q.update(int64(id))
		}
	}
	entries := 0
	for _, b := range q.bkts {
		entries += len(b)
	}
	if entries > 2*n {
		t.Fatalf("%d queue entries for %d ids after 1000 decreases each", entries, n)
	}
	var batch []int64
	var prev int64 = -1
	for total := 0; total < n; total += len(batch) {
		var level int64
		var ok bool
		if batch, level, ok = q.nextBatch(batch[:0], alive); !ok || level < prev {
			t.Fatalf("after %d ids: ok %v, level %d after %d", total, ok, level, prev)
		}
		prev = level
	}
}

// keyDrop lowers keys[id] to key (never raising it) and re-files id.
type keyDrop struct {
	id  int
	key int64
}

// checkBucketQueue drains a bucketQueue over keys and alive in
// lockstep with a naive oracle whose batch is every alive id with a
// key at or below its level, the larger of the previous level and the
// minimum alive key. After every batch, drops(level, alive) returns
// the decreases to apply before the next extraction; they may go
// below the level and may name one id several times. Batches must
// agree in level and set, every id must be extracted exactly once and
// levels must never fall.
func checkBucketQueue(keys []int64, alive []bool, drops func(level int64, alive []bool) []keyDrop) error {
	want := slices.Clone(alive)
	q := newBucketQueue(keys, alive)
	extracted := make([]bool, len(keys))
	var batch, oracle []int64
	level := int64(-1)
	for round := 0; ; round++ {
		var got int64
		var ok bool
		batch, got, ok = q.nextBatch(batch[:0], alive)

		oracle = oracle[:0]
		lo, some := int64(0), false
		for id, a := range want {
			if a && (!some || keys[id] < lo) {
				lo, some = keys[id], true
			}
		}
		if ok != some {
			return fmt.Errorf("round %d: queue ok=%v, oracle has alive ids: %v", round, ok, some)
		}
		if !ok {
			return nil
		}
		level = max(level, lo)
		for id, a := range want {
			if a && keys[id] <= level {
				want[id] = false
				oracle = append(oracle, int64(id))
			}
		}
		if got != level {
			return fmt.Errorf("round %d: level %d, oracle %d", round, got, level)
		}
		slices.Sort(batch)
		if !slices.Equal(batch, oracle) {
			return fmt.Errorf("round %d at level %d: batch %v, oracle %v", round, level, batch, oracle)
		}
		for _, id := range batch {
			if extracted[id] {
				return fmt.Errorf("round %d: id %d extracted twice", round, id)
			}
			extracted[id] = true
		}
		for _, d := range drops(level, alive) {
			if !alive[d.id] {
				continue
			}
			if d.key < keys[d.id] {
				keys[d.id] = d.key
			}
			q.update(int64(d.id))
		}
	}
}

// The queue equals the naive oracle batch by batch on seeded schedules:
// keys across [0, 2^62), clustered and spread, some ids dead from the
// start, and decreases that land within a bucket, below the level, and
// repeatedly on one id.
func TestBucketQueueMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		keys := make([]int64, n)
		alive := make([]bool, n)
		spread := []int64{1 << 4, 1 << 20, 1 << 40, 1 << 62}[rng.Intn(4)]
		base := rng.Int63n(1 << 62)
		for i := range keys {
			keys[i] = rng.Int63n(spread)
			if spread < 1<<62 && rng.Intn(2) == 0 {
				keys[i] = (base + keys[i]) & (1<<62 - 1)
			}
			alive[i] = rng.Intn(10) != 0
		}
		drops := func(level int64, alive []bool) []keyDrop {
			var ds []keyDrop
			for k := rng.Intn(8); k > 0; k-- {
				id := rng.Intn(n)
				if !alive[id] {
					continue
				}
				key := keys[id]
				switch rng.Intn(4) {
				case 0: // a small decrease, usually within one bucket
					key -= rng.Int63n(4)
				case 1: // below the level: clamped onto it
					key = level - rng.Int63n(level+1)
				case 2: // anywhere between the level and the key
					if key > level {
						key = level + rng.Int63n(key-level+1)
					}
				case 3: // the same id filed several times
					for r := rng.Intn(4); r > 0; r-- {
						key -= rng.Int63n(3)
						ds = append(ds, keyDrop{id, max(key, 0)})
					}
				}
				ds = append(ds, keyDrop{id, max(key, 0)})
			}
			return ds
		}
		if err := checkBucketQueue(keys, alive, drops); err != nil {
			t.Fatalf("seed %d (n=%d, spread %d): %v", seed, n, spread, err)
		}
	}
}

// FuzzBucketQueue decodes the input into keys and decrease operations
// and checks the queue against the naive oracle of checkBucketQueue.
// Byte 0 sets the id count; then two bytes per key give a mantissa and
// a shift (keys across [0, 2^62), ids whose mantissa is 0xff start
// dead); the rest is read after each batch as a count byte followed by
// that many (id, mode, amount) triples: mode 0 lowers the key by
// amount, mode 1 sets it amount below the level (clamped onto the
// level), mode 2 re-files the id unchanged.
func FuzzBucketQueue(f *testing.F) {
	f.Add([]byte{3, 0, 0, 5, 0, 9, 0, 1, 2, 1, 0})
	f.Add([]byte{4, 1, 61, 2, 61, 3, 0, 0xff, 7, 2, 0, 0, 1, 1, 1, 0, 40, 3, 1, 2, 0, 1, 2, 0, 1, 2, 0})
	f.Add([]byte{8, 7, 3, 7, 3, 1, 50, 200, 10, 3, 1, 9, 9, 0, 0, 0, 0, 4, 0, 1, 1, 2, 0, 2, 3, 1, 5, 4, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%64 + 1
		data = data[1:]
		keys := make([]int64, n)
		alive := make([]bool, n)
		for i := range keys {
			var m, s byte
			if len(data) >= 2 {
				m, s, data = data[0], data[1], data[2:]
			}
			keys[i] = int64(m) << (s % 55)
			alive[i] = m != 0xff
		}
		drops := func(level int64, alive []bool) []keyDrop {
			if len(data) == 0 {
				return nil
			}
			c := int(data[0]) % 8
			data = data[1:]
			var ds []keyDrop
			for ; c > 0 && len(data) >= 3; c-- {
				id, mode, amt := int(data[0])%n, data[1]%3, int64(data[2])
				data = data[3:]
				key := keys[id]
				switch mode {
				case 0:
					key -= amt
				case 1:
					key = level - amt
				}
				ds = append(ds, keyDrop{id, max(key, 0)})
			}
			return ds
		}
		if err := checkBucketQueue(keys, alive, drops); err != nil {
			t.Fatal(err)
		}
	})
}
