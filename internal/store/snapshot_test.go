package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"butterfly"
)

// testEdges returns a deterministic pseudo-random bipartite edge set.
func testEdges(m, n, count int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]int]bool)
	var edges [][2]int
	for len(edges) < count {
		e := [2]int{rng.Intn(m), rng.Intn(n)}
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	return edges
}

func canonicalEdges(edges [][2]int) [][2]int {
	g, err := butterfly.FromEdges(maxDim(edges, 0)+1, maxDim(edges, 1)+1, edges)
	if err != nil {
		panic(err)
	}
	return g.Edges()
}

func maxDim(edges [][2]int, i int) int {
	m := 0
	for _, e := range edges {
		if e[i] > m {
			m = e[i]
		}
	}
	return m
}

func TestSnapshotRoundTrip(t *testing.T) {
	cases := []*SnapshotData{
		{Name: "empty", Version: 1, M: 3, N: 4, Count: 0, Edges: nil},
		{Name: "single", Version: 2, M: 1, N: 1, Count: 0, Edges: [][2]int{{0, 0}}},
		{Name: "square", Version: 7, M: 2, N: 2, Count: 1,
			Edges: [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}},
		{Name: "weird/name with spaces%and.bytes", Version: 42, M: 50, N: 60, Count: 0,
			Edges: canonicalEdges(testEdges(50, 60, 300, 1))},
	}
	for _, sd := range cases {
		t.Run(sd.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, sd); err != nil {
				t.Fatalf("write: %v", err)
			}
			got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			want := *sd
			want.Edges = canonicalSortedOrNil(sd.Edges)
			got.Edges = canonicalSortedOrNil(got.Edges)
			if !reflect.DeepEqual(got, &want) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, &want)
			}
		})
	}
}

func canonicalSortedOrNil(edges [][2]int) [][2]int {
	if len(edges) == 0 {
		return nil
	}
	return canonicalEdges(edges)
}

// TestSnapshotChunking forces multiple edge sections and checks the
// set survives reassembly.
func TestSnapshotChunking(t *testing.T) {
	m, n := 2000, 2000 // 4M possible pairs >> edges requested below
	edges := canonicalEdges(testEdges(m, n, 3*snapEdgeChunk+17, 2))
	sd := &SnapshotData{Name: "big", Version: 3, M: m, N: n, Count: 0, Edges: edges}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, sd); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(got.Edges, edges) {
		t.Fatalf("chunked edges corrupted: got %d edges, want %d", len(got.Edges), len(edges))
	}
}

// TestSnapshotFlippedByte corrupts every single byte of a snapshot in
// turn; the reader must reject every mutant. This is the codec-level
// guarantee behind "recovery never serves a corrupt graph".
func TestSnapshotFlippedByte(t *testing.T) {
	sd := &SnapshotData{Name: "g", Version: 5, M: 20, N: 20, Count: 9,
		Edges: canonicalEdges(testEdges(20, 20, 60, 3))}
	// Count=9 is deliberately wrong vs the real count — the codec
	// stores what it is told; cross-checking is recovery's job.
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, sd); err != nil {
		t.Fatalf("write: %v", err)
	}
	orig := buf.Bytes()
	for i := range orig {
		mutant := bytes.Clone(orig)
		mutant[i] ^= 0x5A
		if _, err := ReadSnapshot(bytes.NewReader(mutant)); err == nil {
			t.Fatalf("flipped byte %d of %d accepted", i, len(orig))
		}
	}
}

// TestSnapshotTruncated cuts the snapshot at every length; every
// prefix must be rejected.
func TestSnapshotTruncated(t *testing.T) {
	sd := &SnapshotData{Name: "g", Version: 1, M: 4, N: 4, Count: 1,
		Edges: [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 3}}}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, sd); err != nil {
		t.Fatalf("write: %v", err)
	}
	orig := buf.Bytes()
	for i := 0; i < len(orig); i++ {
		if _, err := ReadSnapshot(bytes.NewReader(orig[:i])); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", i, len(orig))
		}
	}
}

func TestSnapshotFileAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.v1.snap")
	sd := &SnapshotData{Name: "g", Version: 1, M: 2, N: 2, Count: 1,
		Edges: [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}}
	if err := WriteSnapshotFile(path, sd); err != nil {
		t.Fatalf("write file: %v", err)
	}
	// Overwrite with a new version: the old file must be fully
	// replaced, and no temp litter may remain.
	sd2 := *sd
	sd2.Version = 2
	sd2.Edges = sd.Edges[:3]
	sd2.Count = 0
	if err := WriteSnapshotFile(path, &sd2); err != nil {
		t.Fatalf("rewrite file: %v", err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatalf("read file: %v", err)
	}
	if got.Version != 2 || len(got.Edges) != 3 {
		t.Fatalf("got v%d with %d edges, want v2 with 3", got.Version, len(got.Edges))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-snap-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

func TestSnapshotFileNameInjective(t *testing.T) {
	names := []string{"a", "a%2F", "a/", "a b", "a%20b", "ä", "..", "a.b"}
	seen := make(map[string]string)
	for _, n := range names {
		f := snapshotFileName(n, 1)
		if strings.ContainsAny(f, "/\x00") {
			t.Fatalf("unsafe file name %q for graph %q", f, n)
		}
		if prev, ok := seen[f]; ok {
			t.Fatalf("names %q and %q collide on file %q", prev, n, f)
		}
		seen[f] = n
	}
}

func TestSnapshotRejectsWrongVersionMagic(t *testing.T) {
	sd := &SnapshotData{Name: "g", Version: 1, M: 1, N: 1, Edges: [][2]int{{0, 0}}}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, sd); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[7] = 0x02 // future format version
	_, err := ReadSnapshot(bytes.NewReader(b))
	if err == nil || !strings.Contains(err.Error(), "format version") {
		t.Fatalf("future version accepted or wrong error: %v", err)
	}
}

// hugeEdgeCountSnapshot is a 41-byte, checksum-valid snapshot whose
// header promises 2⁶² edges and whose end section follows at once.
func hugeEdgeCountSnapshot() []byte {
	var h encoder
	h.str("g")
	h.uvarint(1)       // version
	h.uvarint(1)       // m
	h.uvarint(1)       // n
	h.uvarint(1 << 62) // numEdges
	h.uvarint(0)       // count
	var buf bytes.Buffer
	buf.Write(snapMagic[:])
	writeSection(&buf, secHeader, h.buf)
	writeSection(&buf, secEnd, nil)
	return buf.Bytes()
}

// The header's edge count is a claim, not an allocation size: a
// snapshot that promises 2⁶² edges is rejected with an error.
func TestSnapshotHugeEdgeCountRejected(t *testing.T) {
	b := hugeEdgeCountSnapshot()
	if len(b) != 41 {
		t.Fatalf("repro is %d bytes, want 41", len(b))
	}
	if _, err := ReadSnapshot(bytes.NewReader(b)); err == nil {
		t.Fatal("snapshot promising 2^62 edges accepted")
	}
}

// FuzzReadSnapshot: the reader never panics on arbitrary bytes, and
// any snapshot it accepts re-encodes through WriteSnapshot to an equal
// SnapshotData.
func FuzzReadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		sd, err := ReadSnapshot(bytes.NewReader(b))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, sd); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		again, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if !reflect.DeepEqual(again, sd) {
			t.Fatalf("round trip changed the snapshot:\n got %+v\nwant %+v", again, sd)
		}
	})
}
