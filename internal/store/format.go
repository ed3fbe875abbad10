// Package store is bfserved's durable storage subsystem: a
// checksummed binary snapshot codec, an append-only mutation WAL with
// group commit, crash recovery, and background checkpointing with log
// compaction.
//
// The durability model is snapshot + log. Each registered graph is
// periodically checkpointed into a CRC32C-checksummed snapshot file
// holding its exact edge set and butterfly count; every mutation batch
// between checkpoints is appended to a single write-ahead log before
// it is published to readers. Recovery loads the newest valid snapshot
// of each graph, replays the WAL tail through a DynamicCounter — the
// same incremental machinery that applied the batches the first time,
// so the replayed count is recomputed by the paper's per-edge support
// update rule, never trusted blindly — and truncates the log at the
// first torn or corrupt record.
//
// Everything on disk is length-prefixed and checksummed with CRC32C
// (Castagnoli), the polynomial with hardware support on amd64/arm64.
package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
)

// castagnoli is the CRC32C table shared by the snapshot codec and the
// WAL framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encoder builds a varint-packed payload.
type encoder struct{ buf []byte }

func (e *encoder) uvarint(x uint64) { e.buf = binary.AppendUvarint(e.buf, x) }

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// pairs encodes an edge list verbatim (order-preserving), one uvarint
// per endpoint. Used for mutation batches, which are small and whose
// order is part of the record's meaning.
func (e *encoder) pairs(edges [][2]int) {
	e.uvarint(uint64(len(edges)))
	for _, p := range edges {
		e.uvarint(uint64(p[0]))
		e.uvarint(uint64(p[1]))
	}
}

// sortedPairs encodes an edge list delta-compressed: edges are sorted
// row-major (ascending u, then v) and each edge stores (Δu, v) — or
// (0, Δv) within a run of equal u — so neighbor lists cost ~1 byte per
// edge instead of 8–16. Used for full edge sets (snapshots, register
// records), where only the set matters.
func (e *encoder) sortedPairs(edges [][2]int) {
	edges = sortPairs(edges)
	e.uvarint(uint64(len(edges)))
	prevU, prevV := 0, 0
	for _, p := range edges {
		du := p[0] - prevU
		if du == 0 {
			e.uvarint(0)
			e.uvarint(uint64(p[1] - prevV))
		} else {
			e.uvarint(uint64(du))
			e.uvarint(uint64(p[1]))
		}
		prevU, prevV = p[0], p[1]
	}
}

// sortPairs returns edges sorted row-major: edges itself when it is
// already in order, else a sorted copy.
func sortPairs(edges [][2]int) [][2]int {
	for i := 1; i < len(edges); i++ {
		if pairLess(edges[i], edges[i-1]) {
			cp := slices.Clone(edges)
			slices.SortFunc(cp, func(a, b [2]int) int {
				return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
			})
			return cp
		}
	}
	return edges
}

// pairLess orders edges row-major: by u, then by v.
func pairLess(a, b [2]int) bool {
	return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1])
}

// decoder consumes a varint-packed payload with sticky error state, so
// callers can chain reads and check once at the end.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("store: truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return x
}

// intv decodes a uvarint bounded to the non-negative int range.
func (d *decoder) intv() int {
	x := d.uvarint()
	if d.err == nil && x > uint64(maxInt) {
		d.fail("store: value %d overflows int", x)
		return 0
	}
	return int(x)
}

const maxInt = int(^uint(0) >> 1)

func (d *decoder) str() string {
	n := d.intv()
	if d.err != nil {
		return ""
	}
	if n > len(d.buf)-d.off {
		d.fail("store: string length %d exceeds remaining %d bytes", n, len(d.buf)-d.off)
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decoder) pairs() [][2]int {
	n := d.intv()
	if d.err != nil {
		return nil
	}
	// Each pair costs at least 2 bytes; reject counts the buffer cannot
	// possibly hold before allocating.
	if n > (len(d.buf)-d.off)/2+1 {
		d.fail("store: pair count %d exceeds remaining payload", n)
		return nil
	}
	out := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		u := d.intv()
		v := d.intv()
		if d.err != nil {
			return nil
		}
		out = append(out, [2]int{u, v})
	}
	return out
}

func (d *decoder) sortedPairs() [][2]int {
	n := d.intv()
	if d.err != nil {
		return nil
	}
	if n > len(d.buf)-d.off {
		// Delta coding costs ≥ 1 byte per endpoint pair (two varints).
		d.fail("store: edge count %d exceeds remaining payload", n)
		return nil
	}
	out := make([][2]int, 0, n)
	prevU, prevV := 0, 0
	for i := 0; i < n; i++ {
		du := d.intv()
		dv := d.intv()
		if d.err != nil {
			return nil
		}
		if du == 0 {
			prevV += dv
		} else {
			prevU += du
			prevV = dv
		}
		out = append(out, [2]int{prevU, prevV})
	}
	return out
}

// remaining reports whether unconsumed bytes remain; a well-formed
// payload is consumed exactly.
func (d *decoder) remaining() int { return len(d.buf) - d.off }
