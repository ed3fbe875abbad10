package peel

import "math/bits"

// bucketQueue is the priority queue of the incremental peeling engine:
// a monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, 1990) with
// lazy updates and batched extraction. Bucket 0 holds the ids whose
// key is at or below last, the level being peeled; bucket i ≥ 1 holds
// the keys whose highest bit differing from last is bit i−1, so every
// key in bucket i is below every key in bucket i+1. Re-basing last on
// the minimum of bucket i moves that bucket's entries into lower
// buckets and leaves the others valid. An entry therefore moves at
// most 64 times, and an extraction scans at most the 65 buckets plus
// the entries it moves or discards, however many levels the butterfly
// supports span.
//
// Updates are lazy: when a key decreases into a lower bucket, the id
// is filed again and its old entry goes stale. An alive id's current
// entry is in the lowest bucket holding it, so a stale entry is reached
// only after the id was extracted, and is dropped then. A decrease that
// leaves the id in the bucket of its current entry files nothing, so an
// id is filed at most once per bucket it descends through: the buckets
// hold O(65 · ids) entries however many times the keys change.
//
// nextBatch drains bucket 0 in one call, which is exactly the
// round-synchronous peeling batch. Keys that drop to or below last
// while a level is processed land in bucket 0 again, so the cascade
// within one level replays the sub-rounds of round-synchronous peeling
// and yields identical (confluent) decomposition numbers.
//
// Bucket slices are reused, so a warm queue allocates only when a
// slice outgrows its previous high-water mark.
type bucketQueue struct {
	keys []int64 // caller-owned current keys; mutated between calls
	last int64   // current level; keys only fall to it, never below
	at   []uint8 // bucket of each id's current entry; unfiled ids hold unfiled
	bkts [65][]int64
}

// unfiled marks an id that has no entry in the queue yet.
const unfiled = 255

// newBucketQueue builds a queue over the ids with alive[id] true, keyed
// by keys[id] ≥ 0. The keys slice is retained: the engine updates it
// in place and re-files changed ids with update. The first extraction
// re-bases last from 0 onto the minimum key.
func newBucketQueue(keys []int64, alive []bool) *bucketQueue {
	q := &bucketQueue{keys: keys, at: make([]uint8, len(keys))}
	for id := range q.at {
		q.at[id] = unfiled
	}
	for id := range keys {
		if alive[id] {
			q.update(int64(id))
		}
	}
	return q
}

// update files id under its current key keys[id], which the caller may
// only have decreased since the id was last filed. A key at or below
// last is due now. An id whose current entry already sits in the right
// bucket is left there; stale entries left behind are skipped at
// extraction.
func (q *bucketQueue) update(id int64) {
	i := 0
	if k := q.keys[id]; k > q.last {
		i = bits.Len64(uint64(k ^ q.last))
	}
	if q.at[id] == uint8(i) {
		return
	}
	q.at[id] = uint8(i)
	q.bkts[i] = append(q.bkts[i], id)
}

// nextBatch appends every alive id of bucket 0 to dst, marks each
// extracted id dead in alive, and returns the batch with its level.
// When bucket 0 has no alive id it re-bases on the lowest non-empty
// bucket first. ok is false when the queue is exhausted. Bucket 0 is
// revisited on the next call, because cascading updates during batch
// processing may re-populate the level.
func (q *bucketQueue) nextBatch(dst []int64, alive []bool) ([]int64, int64, bool) {
	for {
		b := q.bkts[0]
		for _, id := range b {
			if alive[id] {
				alive[id] = false
				dst = append(dst, id)
			}
		}
		q.bkts[0] = b[:0]
		if len(dst) > 0 {
			return dst, q.last, true
		}
		if !q.advance(alive) {
			return dst, 0, false
		}
	}
}

// advance raises last to the minimum alive key of the lowest bucket
// that holds an alive id and redistributes that bucket's alive entries
// into lower buckets (at least one reaches bucket 0). Buckets holding
// only dead ids are emptied on the way. Returns false when no alive id
// is left.
func (q *bucketQueue) advance(alive []bool) bool {
	for i := 1; i < len(q.bkts); i++ {
		b := q.bkts[i]
		if len(b) == 0 {
			continue
		}
		q.bkts[i] = b[:0]
		found := false
		for _, id := range b {
			if alive[id] && (!found || q.keys[id] < q.last) {
				q.last, found = q.keys[id], true
			}
		}
		if !found {
			continue
		}
		// Every key of bucket i agrees with the new last above bit i−1,
		// so each entry lands in a bucket below i and b is not appended to.
		for _, id := range b {
			if alive[id] {
				q.update(id)
			}
		}
		return true
	}
	return false
}
