package serveapi

// Binary wire format of GET /v1/internal/partial/{name}: a shard's
// V1-centered wedge partial map, the unit the cluster router reduces
// into exact cross-shard butterfly counts. JSON would inflate the map
// (one entry per distinct V2 endpoint pair) by an order of magnitude,
// so partials travel as a compact delta-varint stream with a CRC32C
// trailer, mirroring the durable store's corruption discipline.
//
//	magic   "bfpart1\n" (8 bytes)
//	uvarint snapshot version
//	uvarint entry count
//	entries uvarint key delta, uvarint wedge count
//	        (key = uint64(V)<<32 | W as core.PairKey packs it,
//	        strictly increasing; V, W < 2^31, count <= MaxInt64)
//	crc32c  Castagnoli over everything above, little-endian (4 bytes)

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"butterfly"
	"butterfly/internal/core"
)

// partialMagic identifies (and versions) the partial wire format.
var partialMagic = [8]byte{'b', 'f', 'p', 'a', 'r', 't', '1', '\n'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodePartial serializes a graph snapshot's wedge partial map. The
// partials must be sorted by (V, W), which is what
// Graph.WedgePartials produces.
func EncodePartial(version uint64, partials []butterfly.WedgePartial) []byte {
	// Pre-size: magic + two small varints + ≤ 15 bytes per entry.
	buf := make([]byte, 0, 8+20+11*len(partials))
	buf = append(buf, partialMagic[:]...)
	buf = binary.AppendUvarint(buf, version)
	buf = binary.AppendUvarint(buf, uint64(len(partials)))
	prev := uint64(0)
	for _, p := range partials {
		key := core.PairKey(p.V, p.W)
		buf = binary.AppendUvarint(buf, key-prev)
		buf = binary.AppendUvarint(buf, uint64(p.Count))
		prev = key
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// splitKey splits a wire key into its (V, W) halves. Vertex ids are
// non-negative int32s, so a key with bit 63 or bit 31 set names no
// vertex pair and is rejected.
func splitKey(key uint64) (v, w int32, ok bool) {
	if key&(1<<63|1<<31) != 0 {
		return 0, 0, false
	}
	v, w = core.SplitPairKey(key)
	return v, w, true
}

// DecodePartial parses an encoded partial map, verifying the magic
// and the CRC32C trailer before trusting any entry. An entry whose V
// or W lies outside [0, 2^31) or whose count exceeds math.MaxInt64 is
// rejected: these bytes come from another process, and a negative
// count would silently corrupt the merged butterfly count.
func DecodePartial(b []byte) (version uint64, partials []butterfly.WedgePartial, err error) {
	if len(b) < 8+4 || [8]byte(b[:8]) != partialMagic {
		return 0, nil, fmt.Errorf("serveapi: partial: bad magic or short payload (%d bytes)", len(b))
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(trailer); got != want {
		return 0, nil, fmt.Errorf("serveapi: partial: crc mismatch (got %08x, want %08x)", got, want)
	}
	rest := body[8:]
	next := func(what string) (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("serveapi: partial: truncated %s", what)
		}
		rest = rest[n:]
		return v, nil
	}
	if version, err = next("version"); err != nil {
		return 0, nil, err
	}
	count, err := next("entry count")
	if err != nil {
		return 0, nil, err
	}
	if count > uint64(len(rest)/2) {
		return 0, nil, fmt.Errorf("serveapi: partial: entry count %d exceeds payload", count)
	}
	partials = make([]butterfly.WedgePartial, 0, count)
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		delta, err := next("key delta")
		if err != nil {
			return 0, nil, err
		}
		c, err := next("wedge count")
		if err != nil {
			return 0, nil, err
		}
		key := prev + delta
		if i > 0 && key <= prev {
			return 0, nil, fmt.Errorf("serveapi: partial: keys not strictly increasing at entry %d", i)
		}
		prev = key
		v, w, ok := splitKey(key)
		if !ok {
			return 0, nil, fmt.Errorf("serveapi: partial: vertex id out of range at entry %d", i)
		}
		if c > math.MaxInt64 {
			return 0, nil, fmt.Errorf("serveapi: partial: wedge count %d out of range at entry %d", c, i)
		}
		partials = append(partials, butterfly.WedgePartial{V: v, W: w, Count: int64(c)})
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("serveapi: partial: %d trailing bytes after %d entries", len(rest), count)
	}
	return version, partials, nil
}
