package serveapi

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"
	"testing"

	"butterfly"
)

func TestPartialRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		version  uint64
		partials []butterfly.WedgePartial
	}{
		{"empty", 7, nil},
		{"one", 1, []butterfly.WedgePartial{{V: 0, W: 1, Count: 3}}},
		{"many", 42, []butterfly.WedgePartial{
			{V: 0, W: 1, Count: 1},
			{V: 0, W: 5, Count: 2},
			{V: 3, W: 4, Count: 1000000},
			{V: 1 << 20, W: 1<<20 + 1, Count: 9},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc := EncodePartial(tc.version, tc.partials)
			v, got, err := DecodePartial(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if v != tc.version {
				t.Errorf("version = %d, want %d", v, tc.version)
			}
			if len(got) != len(tc.partials) {
				t.Fatalf("len = %d, want %d", len(got), len(tc.partials))
			}
			for i := range got {
				if got[i] != tc.partials[i] {
					t.Errorf("entry %d = %+v, want %+v", i, got[i], tc.partials[i])
				}
			}
		})
	}
}

func TestPartialDecodeRejectsCorruption(t *testing.T) {
	enc := EncodePartial(3, []butterfly.WedgePartial{
		{V: 1, W: 2, Count: 5}, {V: 1, W: 9, Count: 1},
	})
	if _, _, err := DecodePartial(nil); err == nil {
		t.Error("nil payload accepted")
	}
	if _, _, err := DecodePartial(enc[:len(enc)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
	flipped := bytes.Clone(enc)
	flipped[10] ^= 0xff
	if _, _, err := DecodePartial(flipped); err == nil {
		t.Error("bit-flipped payload accepted (crc not checked?)")
	}
	badMagic := bytes.Clone(enc)
	badMagic[0] = 'X'
	if _, _, err := DecodePartial(badMagic); err == nil {
		t.Error("bad magic accepted")
	}
	withJunk := append(bytes.Clone(enc[:len(enc)-4]), 0, 0)
	if _, _, err := DecodePartial(withJunk); err == nil {
		t.Error("trailing junk accepted")
	}
}

// buildFullFrame hand-assembles a sealed full frame from raw wire keys
// and counts, so a test can put bytes on the wire that EncodePartial
// would never produce.
func buildFullFrame(version uint64, keys, counts []uint64) []byte {
	buf := append([]byte(nil), partialMagic[:]...)
	buf = binary.AppendUvarint(buf, version)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	prev := uint64(0)
	for i, key := range keys {
		buf = binary.AppendUvarint(buf, key-prev)
		buf = binary.AppendUvarint(buf, counts[i])
		prev = key
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// TestPartialDecodersRejectOutOfRange feeds both decoders frames with
// a valid CRC whose entries name no vertex pair (bit 31 of either half
// of the key set) or, in a full frame, carry a count above MaxInt64.
// Decoded blindly, the first row becomes {V:-1 W:-2^31 Count:-2^63}.
func TestPartialDecodersRejectOutOfRange(t *testing.T) {
	const maxID = uint64(math.MaxInt32)
	full := func(key, count uint64) []byte {
		return buildFullFrame(1, []uint64{key}, []uint64{count})
	}
	delta := func(key uint64) []byte {
		return sealDelta(buildDeltaBody(1, 2, []entry{{key: key, count: -1}}))
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		ok    bool
	}{
		{"full/both-halves-and-count", full(0xFFFFFFFF80000000, 1<<63), false},
		{"full/v-bit31", full(1<<63, 1), false},
		{"full/w-bit31", full(1<<31, 1), false},
		{"full/count-above-maxint64", full(1, 1<<63), false},
		{"full/largest-valid", full(maxID<<32|maxID, math.MaxInt64), true},
		{"delta/both-halves", delta(0xFFFFFFFF80000000), false},
		{"delta/v-bit31", delta(1 << 63), false},
		{"delta/w-bit31", delta(1 << 31), false},
		{"delta/largest-valid", delta(maxID<<32 | maxID), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			var got []butterfly.WedgePartial
			if PartialFrameKind(tc.frame) == PartialFrameFull {
				_, got, err = DecodePartial(tc.frame)
			} else {
				_, _, got, err = DecodePartialDelta(tc.frame)
			}
			if tc.ok && err != nil {
				t.Fatalf("valid frame rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("out-of-range frame accepted as %+v", got)
			}
		})
	}
}

// FuzzDecodePartial checks that every frame DecodePartial accepts has
// non-negative ids and counts, and that re-encoding the decoded map
// decodes to the same version and entries. Seeds live in
// testdata/fuzz/FuzzDecodePartial.
func FuzzDecodePartial(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		version, partials, err := DecodePartial(b)
		if err != nil {
			return
		}
		for _, p := range partials {
			if p.V < 0 || p.W < 0 || p.Count < 0 {
				t.Fatalf("accepted out-of-range entry %+v", p)
			}
		}
		v2, again, err := DecodePartial(EncodePartial(version, partials))
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if v2 != version || !slices.Equal(again, partials) {
			t.Fatalf("round trip changed the frame: v%d %+v, want v%d %+v", v2, again, version, partials)
		}
	})
}
