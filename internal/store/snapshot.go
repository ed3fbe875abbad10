package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Snapshot file layout (version 1):
//
//	magic   [8]byte  "BFSNAP\x00\x01"  (format version in the last byte)
//	section*         kind u8 | len u32le | payload | crc u32le
//	end              kind 0xFF | len 0 | crc
//
// The CRC32C covers kind ‖ len ‖ payload, so a flipped byte anywhere
// in a section — including its length prefix — fails verification.
// Sections:
//
//	header (1): name, version, m, n, numEdges, count   (varint payload)
//	edges  (2): uvarint count + delta-coded sorted pairs; large edge
//	            sets are chunked so corruption is localized per chunk
//	end  (255): empty; a snapshot without it is torn and rejected
//
// Writers go through a temp file + fsync + atomic rename + directory
// fsync, so a crash mid-write can never leave a half-snapshot under
// the final name.

var snapMagic = [8]byte{'B', 'F', 'S', 'N', 'A', 'P', 0x00, 0x01}

const (
	secHeader = 1
	secEdges  = 2
	secEnd    = 0xFF

	// snapEdgeChunk bounds edges per section; ~1 MiB of payload per
	// chunk keeps per-section CRC granularity useful on big graphs.
	snapEdgeChunk = 1 << 18

	// maxSectionLen rejects absurd length prefixes before allocating.
	maxSectionLen = 1 << 26
)

// SnapshotData is the logical content of one snapshot file: a graph's
// full edge set at one version plus its exact butterfly count.
type SnapshotData struct {
	Name    string
	Version uint64
	M, N    int
	Count   int64
	Edges   [][2]int
}

// writeSection frames one checksummed section.
func writeSection(w io.Writer, kind byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	crc := crc32.Update(0, castagnoli, hdr[:])
	crc = crc32.Update(crc, castagnoli, payload)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	_, err := w.Write(tail[:])
	return err
}

// readSection reads one section, verifying its checksum.
func readSection(r io.Reader) (kind byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("store: snapshot truncated: missing section header: %w", io.ErrUnexpectedEOF)
		}
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxSectionLen {
		return 0, nil, fmt.Errorf("store: snapshot section length %d exceeds limit", n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("store: snapshot truncated mid-section: %w", err)
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return 0, nil, fmt.Errorf("store: snapshot truncated before checksum: %w", err)
	}
	crc := crc32.Update(0, castagnoli, hdr[:])
	crc = crc32.Update(crc, castagnoli, payload)
	if got := binary.LittleEndian.Uint32(tail[:]); got != crc {
		return 0, nil, fmt.Errorf("store: snapshot section checksum mismatch (stored %08x, computed %08x)", got, crc)
	}
	return hdr[0], payload, nil
}

// WriteSnapshot serializes sd to w in the checksummed binary format.
func WriteSnapshot(w io.Writer, sd *SnapshotData) error {
	if sd.Name == "" {
		return fmt.Errorf("store: snapshot needs a graph name")
	}
	if sd.Count < 0 {
		return fmt.Errorf("store: negative butterfly count %d", sd.Count)
	}
	if _, err := w.Write(snapMagic[:]); err != nil {
		return err
	}

	var h encoder
	h.str(sd.Name)
	h.uvarint(sd.Version)
	h.uvarint(uint64(sd.M))
	h.uvarint(uint64(sd.N))
	h.uvarint(uint64(len(sd.Edges)))
	h.uvarint(uint64(sd.Count))
	if err := writeSection(w, secHeader, h.buf); err != nil {
		return err
	}

	// Sort the whole list before chunking, so the sections concatenate
	// to one sorted list as ReadSnapshot requires.
	edges := sortPairs(sd.Edges)
	for off := 0; off < len(edges) || off == 0; off += snapEdgeChunk {
		end := min(off+snapEdgeChunk, len(edges))
		var e encoder
		// Chunks are delta-coded independently so a bad chunk does not
		// poison its neighbors' decoding (detection is per-section).
		e.sortedPairs(edges[off:end])
		if err := writeSection(w, secEdges, e.buf); err != nil {
			return err
		}
		if len(edges) == 0 {
			break
		}
	}

	return writeSection(w, secEnd, nil)
}

// ReadSnapshot parses and verifies one snapshot stream.
func ReadSnapshot(r io.Reader) (*SnapshotData, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("store: snapshot too short for magic: %w", err)
	}
	if magic != snapMagic {
		if string(magic[:6]) == string(snapMagic[:6]) {
			return nil, fmt.Errorf("store: unsupported snapshot format version %d", magic[7])
		}
		return nil, fmt.Errorf("store: bad snapshot magic %q", magic[:])
	}

	kind, payload, err := readSection(br)
	if err != nil {
		return nil, err
	}
	if kind != secHeader {
		return nil, fmt.Errorf("store: snapshot starts with section kind %d, want header", kind)
	}
	d := decoder{buf: payload}
	sd := &SnapshotData{Name: d.str()}
	sd.Version = d.uvarint()
	sd.M = d.intv()
	sd.N = d.intv()
	numEdges := d.intv()
	count := d.uvarint()
	sd.Count = int64(count)
	if d.err != nil {
		return nil, fmt.Errorf("store: snapshot header: %w", d.err)
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("store: snapshot header has %d trailing bytes", d.remaining())
	}
	if sd.Name == "" || sd.Version == 0 {
		return nil, fmt.Errorf("store: snapshot header missing name or version")
	}
	if sd.Count < 0 {
		return nil, fmt.Errorf("store: snapshot count %d overflows int64", count)
	}

	// numEdges is only a claim until the edge sections deliver it:
	// preallocate at most one chunk and let append grow the rest.
	sd.Edges = make([][2]int, 0, min(numEdges, snapEdgeChunk))
	for {
		kind, payload, err := readSection(br)
		if err != nil {
			return nil, err
		}
		switch kind {
		case secEdges:
			d := decoder{buf: payload}
			chunk := d.sortedPairs()
			if d.err != nil {
				return nil, fmt.Errorf("store: snapshot edges: %w", d.err)
			}
			if d.remaining() != 0 {
				return nil, fmt.Errorf("store: snapshot edge section has %d trailing bytes", d.remaining())
			}
			// Writers emit one row-major sorted edge list; an edge that
			// steps back — across sections, or after a delta that
			// overflowed int — is corrupt.
			for _, e := range chunk {
				if i := len(sd.Edges); i > 0 && pairLess(e, sd.Edges[i-1]) {
					return nil, fmt.Errorf("store: snapshot edges out of order at edge %d", i)
				}
				sd.Edges = append(sd.Edges, e)
			}
		case secEnd:
			if len(sd.Edges) != numEdges {
				return nil, fmt.Errorf("store: snapshot holds %d edges, header promised %d", len(sd.Edges), numEdges)
			}
			return sd, nil
		default:
			return nil, fmt.Errorf("store: unknown snapshot section kind %d", kind)
		}
	}
}

// WriteSnapshotFile writes sd to path atomically: temp file in the
// same directory, fsync, rename into place, fsync the directory. A
// crash at any point leaves either the old file or the new one, never
// a torn hybrid.
func WriteSnapshotFile(path string, sd *SnapshotData) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-snap-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 1<<16)
	if err = WriteSnapshot(bw, sd); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// ReadSnapshotFile reads and verifies the snapshot at path.
func ReadSnapshotFile(path string) (*SnapshotData, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sd, err := ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return sd, nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry
// is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// snapshotFileName maps a graph name and version to a stable file
// name. The graph name is percent-escaped (injective, filesystem-safe:
// only [A-Za-z0-9_-] pass through), but the name inside the header is
// authoritative — recovery never parses file names.
func snapshotFileName(name string, version uint64) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return fmt.Sprintf("%s.v%d.snap", b.String(), version)
}
