package serveapi

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"butterfly"
)

func TestPartialDeltaRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		from, to uint64
		delta    []butterfly.WedgePartial
	}{
		{"empty-noop", 7, 7, nil},
		{"empty-advance", 3, 9, nil},
		{"one-positive", 1, 2, []butterfly.WedgePartial{{V: 0, W: 1, Count: 3}}},
		{"one-negative", 5, 6, []butterfly.WedgePartial{{V: 2, W: 7, Count: -4}}},
		{"mixed", 10, 14, []butterfly.WedgePartial{
			{V: 0, W: 1, Count: -1},
			{V: 0, W: 5, Count: 2},
			{V: 3, W: 4, Count: -1000000},
			{V: 1 << 20, W: 1<<20 + 1, Count: 9},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc := EncodePartialDelta(tc.from, tc.to, tc.delta)
			if kind := PartialFrameKind(enc); kind != PartialFrameDelta {
				t.Fatalf("frame kind = %q, want %q", kind, PartialFrameDelta)
			}
			from, to, got, err := DecodePartialDelta(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if from != tc.from || to != tc.to {
				t.Errorf("versions = %d→%d, want %d→%d", from, to, tc.from, tc.to)
			}
			if len(got) != len(tc.delta) {
				t.Fatalf("len = %d, want %d", len(got), len(tc.delta))
			}
			for i := range got {
				if got[i] != tc.delta[i] {
					t.Errorf("entry %d = %+v, want %+v", i, got[i], tc.delta[i])
				}
			}
		})
	}
}

func TestPartialFrameKind(t *testing.T) {
	full := EncodePartial(1, []butterfly.WedgePartial{{V: 0, W: 1, Count: 2}})
	if kind := PartialFrameKind(full); kind != PartialFrameFull {
		t.Errorf("full frame sniffed as %q", kind)
	}
	delta := EncodePartialDelta(1, 2, nil)
	if kind := PartialFrameKind(delta); kind != PartialFrameDelta {
		t.Errorf("delta frame sniffed as %q", kind)
	}
	if kind := PartialFrameKind([]byte("not a frame either way")); kind != "" {
		t.Errorf("junk sniffed as %q", kind)
	}
	if kind := PartialFrameKind(nil); kind != "" {
		t.Errorf("nil sniffed as %q", kind)
	}
}

// TestPartialDeltaCorruptionMatrix exhaustively flips every byte and
// truncates at every length of an encoded frame: each corruption must
// be rejected (the CRC trailer catches anything the structural checks
// miss). Mirrors the full-map codec's corruption test, exhaustively.
func TestPartialDeltaCorruptionMatrix(t *testing.T) {
	enc := EncodePartialDelta(3, 8, []butterfly.WedgePartial{
		{V: 1, W: 2, Count: 5},
		{V: 1, W: 9, Count: -1},
		{V: 4, W: 6, Count: 1},
	})
	for i := range enc {
		for _, mask := range []byte{0xff, 0x01, 0x80} {
			flipped := bytes.Clone(enc)
			flipped[i] ^= mask
			if _, _, _, err := DecodePartialDelta(flipped); err == nil {
				t.Errorf("byte %d ^ %#02x accepted", i, mask)
			}
		}
	}
	for n := 0; n < len(enc); n++ {
		if _, _, _, err := DecodePartialDelta(enc[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	if _, _, _, err := DecodePartialDelta(append(bytes.Clone(enc), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// entry and the builders below hand-assemble delta frames with a
// valid CRC but invalid contents, to prove the structural checks are
// not relying on the checksum.
type entry struct {
	key   uint64
	count int64
}

func buildDeltaBody(from, to uint64, entries []entry) []byte {
	buf := append([]byte(nil), partialDeltaMagic[:]...)
	buf = binary.AppendUvarint(buf, from)
	buf = binary.AppendUvarint(buf, to)
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	prev := uint64(0)
	for _, e := range entries {
		buf = binary.AppendUvarint(buf, e.key-prev)
		buf = binary.AppendVarint(buf, e.count)
		prev = e.key
	}
	return buf
}

func sealDelta(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

func TestPartialDeltaStructuralRejects(t *testing.T) {
	// A frame whose CRC is valid but whose contents violate invariants
	// must still be rejected: to < from, zero count deltas, duplicate
	// keys. Build them by hand through the encoder's building blocks.
	reseal := func(body []byte) []byte {
		return sealDelta(body)
	}

	// to < from.
	bad := buildDeltaBody(9, 3, nil)
	if _, _, _, err := DecodePartialDelta(reseal(bad)); err == nil {
		t.Error("to < from accepted")
	}

	// Zero count delta.
	bad = buildDeltaBody(1, 2, []entry{{key: 5, count: 0}})
	if _, _, _, err := DecodePartialDelta(reseal(bad)); err == nil {
		t.Error("zero count delta accepted")
	}

	// Non-increasing keys (second key delta of 0).
	bad = buildDeltaBody(1, 2, []entry{{key: 5, count: 1}, {key: 5, count: 2}})
	if _, _, _, err := DecodePartialDelta(reseal(bad)); err == nil {
		t.Error("duplicate key accepted")
	}
}

// FuzzDecodePartialDelta checks that every frame DecodePartialDelta
// accepts has non-negative ids, and that re-encoding the decoded delta
// decodes to the same versions and entries. Seeds live in
// testdata/fuzz/FuzzDecodePartialDelta.
func FuzzDecodePartialDelta(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		from, to, delta, err := DecodePartialDelta(b)
		if err != nil {
			return
		}
		for _, p := range delta {
			if p.V < 0 || p.W < 0 {
				t.Fatalf("accepted out-of-range entry %+v", p)
			}
		}
		from2, to2, again, err := DecodePartialDelta(EncodePartialDelta(from, to, delta))
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if from2 != from || to2 != to || !slices.Equal(again, delta) {
			t.Fatalf("round trip changed the frame: %d→%d %+v, want %d→%d %+v", from2, to2, again, from, to, delta)
		}
	})
}
