package serveapi

// Binary wire format of GET /v1/internal/partial/{name}?since=V: the
// signed change in a shard's wedge partial map between two versions,
// shipped instead of the full map when the shard still holds the delta
// history. The router applies it to its pinned copy — changed keys
// only, so a small mutation batch syncs in a few hundred bytes where
// the full map is megabytes.
//
//	magic   "bfpdlt1\n" (8 bytes)
//	uvarint from version (the base the delta applies to)
//	uvarint to version   (>= from; == from means "unchanged")
//	uvarint entry count
//	entries uvarint key delta, varint signed count delta (zigzag,
//	        nonzero; key = core.PairKey(V, W), strictly increasing;
//	        V, W < 2^31)
//	crc32c  Castagnoli over everything above, little-endian (4 bytes)
//
// Full and delta frames are distinguished by magic: the router sniffs
// with PartialFrameKind and falls back to DecodePartial when the shard
// answered `?since=` with a full map (history evicted, epoch mismatch,
// or a freshly restarted shard).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"butterfly"
	"butterfly/internal/core"
)

// partialDeltaMagic identifies (and versions) the delta wire format.
var partialDeltaMagic = [8]byte{'b', 'f', 'p', 'd', 'l', 't', '1', '\n'}

// Frame kinds reported by PartialFrameKind.
const (
	PartialFrameFull  = "full"
	PartialFrameDelta = "delta"
)

// PartialFrameKind sniffs a partial response body: PartialFrameFull,
// PartialFrameDelta, or "" when the magic matches neither codec.
func PartialFrameKind(b []byte) string {
	if len(b) >= 8 {
		switch [8]byte(b[:8]) {
		case partialMagic:
			return PartialFrameFull
		case partialDeltaMagic:
			return PartialFrameDelta
		}
	}
	return ""
}

// EncodePartialDelta serializes the signed partial-map change from
// version `from` to version `to`. Entries must be sorted by (V, W)
// with nonzero counts — what butterfly.WedgePartialDelta and
// SumWedgePartialDeltas produce.
func EncodePartialDelta(from, to uint64, delta []butterfly.WedgePartial) []byte {
	buf := make([]byte, 0, 8+30+15*len(delta))
	buf = append(buf, partialDeltaMagic[:]...)
	buf = binary.AppendUvarint(buf, from)
	buf = binary.AppendUvarint(buf, to)
	buf = binary.AppendUvarint(buf, uint64(len(delta)))
	prev := uint64(0)
	for _, p := range delta {
		key := core.PairKey(p.V, p.W)
		buf = binary.AppendUvarint(buf, key-prev)
		buf = binary.AppendVarint(buf, p.Count)
		prev = key
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// DecodePartialDelta parses an encoded delta frame, verifying magic
// and CRC32C before trusting any entry. The returned delta is sorted
// by (V, W) with nonzero signed counts; an entry whose V or W lies
// outside [0, 2^31) is rejected, as in DecodePartial.
func DecodePartialDelta(b []byte) (from, to uint64, delta []butterfly.WedgePartial, err error) {
	if len(b) < 8+4 || [8]byte(b[:8]) != partialDeltaMagic {
		return 0, 0, nil, fmt.Errorf("serveapi: partial delta: bad magic or short payload (%d bytes)", len(b))
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(trailer); got != want {
		return 0, 0, nil, fmt.Errorf("serveapi: partial delta: crc mismatch (got %08x, want %08x)", got, want)
	}
	rest := body[8:]
	nextU := func(what string) (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("serveapi: partial delta: truncated %s", what)
		}
		rest = rest[n:]
		return v, nil
	}
	if from, err = nextU("from version"); err != nil {
		return 0, 0, nil, err
	}
	if to, err = nextU("to version"); err != nil {
		return 0, 0, nil, err
	}
	if to < from {
		return 0, 0, nil, fmt.Errorf("serveapi: partial delta: to version %d below from version %d", to, from)
	}
	count, err := nextU("entry count")
	if err != nil {
		return 0, 0, nil, err
	}
	if count > uint64(len(rest)/2) {
		return 0, 0, nil, fmt.Errorf("serveapi: partial delta: entry count %d exceeds payload", count)
	}
	delta = make([]butterfly.WedgePartial, 0, count)
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		kd, err := nextU("key delta")
		if err != nil {
			return 0, 0, nil, err
		}
		c, n := binary.Varint(rest)
		if n <= 0 {
			return 0, 0, nil, fmt.Errorf("serveapi: partial delta: truncated count delta")
		}
		rest = rest[n:]
		if c == 0 {
			return 0, 0, nil, fmt.Errorf("serveapi: partial delta: zero count delta at entry %d", i)
		}
		key := prev + kd
		if i > 0 && key <= prev {
			return 0, 0, nil, fmt.Errorf("serveapi: partial delta: keys not strictly increasing at entry %d", i)
		}
		prev = key
		v, w, ok := splitKey(key)
		if !ok {
			return 0, 0, nil, fmt.Errorf("serveapi: partial delta: vertex id out of range at entry %d", i)
		}
		delta = append(delta, butterfly.WedgePartial{V: v, W: w, Count: c})
	}
	if len(rest) != 0 {
		return 0, 0, nil, fmt.Errorf("serveapi: partial delta: %d trailing bytes after %d entries", len(rest), count)
	}
	return from, to, delta, nil
}
