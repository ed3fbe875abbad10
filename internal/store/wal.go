package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// FsyncPolicy selects when WAL appends are flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs before an append is acknowledged. Group
	// commit batches concurrent appends under one fsync, so the cost
	// amortizes under load. No acked mutation is ever lost.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs on a background ticker (Options.
	// FsyncInterval). A crash can lose at most one flush window of
	// acked mutations; an OS crash is required — a dead process alone
	// loses nothing, since appends always reach the page cache.
	FsyncInterval
	// FsyncNever leaves flushing to the OS (and Close). Fastest;
	// recovery still never serves a corrupt graph, it just may rewind
	// further.
	FsyncNever
)

// ParseFsyncPolicy maps the -fsync flag values onto policies.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("store: unknown fsync policy %q (want always|interval|never)", s)
	}
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// WAL record types.
const (
	recRegister = 1 // full edge set enters the registry (replace included)
	recMutate   = 2 // one batch: inserts then deletes, with post-state stamps
	recDrop     = 3 // graph leaves the registry
)

// maxRecordLen rejects absurd record length prefixes during scans.
const maxRecordLen = 1 << 30

// Record is one logical WAL entry. Which fields are meaningful
// depends on Type:
//
//	register: Name, Version (1), M, N, Count, Edges (the full set)
//	mutate:   Name, Version (post-batch), Inserts, Deletes,
//	          Count and NumEdges (post-batch cross-check stamps)
//	drop:     Name
type Record struct {
	Type    byte
	Name    string
	Version uint64

	M, N  int
	Edges [][2]int

	Inserts, Deletes [][2]int

	Count    int64
	NumEdges int64
}

func (r *Record) marshal() ([]byte, error) {
	var e encoder
	e.str(r.Name)
	e.uvarint(r.Version)
	switch r.Type {
	case recRegister:
		e.uvarint(uint64(r.M))
		e.uvarint(uint64(r.N))
		e.uvarint(uint64(r.Count))
		e.sortedPairs(r.Edges)
	case recMutate:
		e.uvarint(uint64(r.Count))
		e.uvarint(uint64(r.NumEdges))
		e.pairs(r.Inserts)
		e.pairs(r.Deletes)
	case recDrop:
	default:
		return nil, fmt.Errorf("store: unknown record type %d", r.Type)
	}
	return e.buf, nil
}

func unmarshalRecord(typ byte, payload []byte) (*Record, error) {
	d := decoder{buf: payload}
	r := &Record{Type: typ, Name: d.str(), Version: d.uvarint()}
	switch typ {
	case recRegister:
		r.M = d.intv()
		r.N = d.intv()
		r.Count = int64(d.uvarint())
		r.Edges = d.sortedPairs()
	case recMutate:
		r.Count = int64(d.uvarint())
		r.NumEdges = int64(d.uvarint())
		r.Inserts = d.pairs()
		r.Deletes = d.pairs()
	case recDrop:
	default:
		return nil, fmt.Errorf("store: unknown record type %d", typ)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("store: record has %d trailing bytes", d.remaining())
	}
	if r.Name == "" {
		return nil, fmt.Errorf("store: record missing graph name")
	}
	return r, nil
}

// WAL is the append-only mutation log. Appends are safe for
// concurrent use; under FsyncAlways, concurrent appenders share
// fsyncs through leader-based group commit.
type WAL struct {
	policy FsyncPolicy

	mu sync.Mutex // serializes writes to f
	f  *os.File

	size atomic.Int64  // current file length
	seq  atomic.Uint64 // records written (monotonic)

	// syncFn performs the flush; swapped by tests to count and fault-
	// inject fsyncs.
	syncFn func() error

	gc struct {
		mu     sync.Mutex
		cond   *sync.Cond
		synced uint64 // highest seq known durable
		leader bool   // an fsync is in flight
		err    error  // sticky: a failed fsync poisons the WAL
		syncs  uint64 // completed fsyncs (group-commit observability)
	}

	stopFlusher chan struct{}
	flusherDone chan struct{}
	closed      bool
}

// openWAL opens (creating if needed) the log at path for appending.
func openWAL(path string, policy FsyncPolicy, interval time.Duration) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &WAL{policy: policy, f: f}
	w.size.Store(st.Size())
	w.syncFn = f.Sync
	w.gc.cond = sync.NewCond(&w.gc.mu)
	if policy == FsyncInterval {
		if interval <= 0 {
			interval = 100 * time.Millisecond
		}
		w.stopFlusher = make(chan struct{})
		w.flusherDone = make(chan struct{})
		go w.flushLoop(interval)
	}
	return w, nil
}

func (w *WAL) flushLoop(interval time.Duration) {
	defer close(w.flusherDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = w.Sync()
		case <-w.stopFlusher:
			return
		}
	}
}

// Append frames, checksums and writes rec, honoring the fsync policy
// before acknowledging. The returned error is fatal for the WAL when
// it stems from a failed write or fsync (the log may be torn past the
// last durable record).
func (w *WAL) Append(rec *Record) error {
	payload, err := rec.marshal()
	if err != nil {
		return err
	}
	frame := make([]byte, 0, 5+len(payload)+4)
	frame = append(frame, rec.Type)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	crc := crc32.Update(0, castagnoli, frame)
	frame = binary.LittleEndian.AppendUint32(frame, crc)

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return fmt.Errorf("store: append to closed WAL")
	}
	if err := w.gcErr(); err != nil {
		// A past fsync failure means durability promises can no longer
		// be kept; refuse further appends.
		w.mu.Unlock()
		return err
	}
	n, err := w.f.Write(frame)
	w.size.Add(int64(n))
	if err != nil {
		w.mu.Unlock()
		return fmt.Errorf("store: wal append: %w", err)
	}
	seq := w.seq.Add(1)
	w.mu.Unlock()

	if w.policy != FsyncAlways {
		return nil
	}
	return w.commitWait(seq)
}

func (w *WAL) gcErr() error {
	w.gc.mu.Lock()
	defer w.gc.mu.Unlock()
	return w.gc.err
}

// commitWait blocks until every record up to seq is durable,
// participating in leader-based group commit: the first waiter becomes
// leader and fsyncs once on behalf of everything written so far;
// followers just wait for a covering sync. One fsync therefore commits
// a whole flush window of concurrent appends.
func (w *WAL) commitWait(seq uint64) error {
	g := &w.gc
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.err != nil {
			return g.err
		}
		if g.synced >= seq {
			return nil
		}
		if g.leader {
			g.cond.Wait()
			continue
		}
		g.leader = true
		// Everything written before this point is covered by the
		// coming fsync; our own record is, since its write completed
		// before commitWait was called.
		covered := w.seq.Load()
		g.mu.Unlock()
		err := w.syncFn()
		g.mu.Lock()
		g.leader = false
		g.syncs++
		if err != nil {
			g.err = fmt.Errorf("store: wal fsync: %w", err)
		} else if covered > g.synced {
			g.synced = covered
		}
		g.cond.Broadcast()
	}
}

// Sync flushes the log to stable storage regardless of policy.
func (w *WAL) Sync() error {
	w.gc.mu.Lock()
	if w.gc.err != nil {
		defer w.gc.mu.Unlock()
		return w.gc.err
	}
	w.gc.mu.Unlock()
	covered := w.seq.Load()
	err := w.syncFn()
	w.gc.mu.Lock()
	defer w.gc.mu.Unlock()
	w.gc.syncs++
	if err != nil {
		w.gc.err = fmt.Errorf("store: wal fsync: %w", err)
		w.gc.cond.Broadcast()
		return w.gc.err
	}
	if covered > w.gc.synced {
		w.gc.synced = covered
	}
	w.gc.cond.Broadcast()
	return nil
}

// Size returns the current log length in bytes.
func (w *WAL) Size() int64 { return w.size.Load() }

// Syncs returns the number of completed fsyncs (for group-commit
// observability and tests).
func (w *WAL) Syncs() uint64 {
	w.gc.mu.Lock()
	defer w.gc.mu.Unlock()
	return w.gc.syncs
}

// Truncate empties the log after a checkpoint has made its contents
// redundant. Callers must exclude concurrent appends.
func (w *WAL) Truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: wal truncate: %w", err)
	}
	if err := w.syncFn(); err != nil {
		return fmt.Errorf("store: wal truncate fsync: %w", err)
	}
	w.size.Store(0)
	return nil
}

// Close flushes and closes the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	if w.stopFlusher != nil {
		close(w.stopFlusher)
		<-w.flusherDone
	}
	syncErr := w.syncFn()
	closeErr := w.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// scanWAL reads records from r until clean EOF or the first sign of
// corruption: a torn frame, a short payload, an unknown type, an
// absurd length, or a checksum mismatch. It returns the decoded
// records, the byte length of the valid prefix, and — when the scan
// stopped early — the reason (nil for a clean end). Everything at and
// beyond validLen is untrustworthy and must be truncated before the
// log is appended to again.
func scanWAL(r io.Reader) (recs []*Record, validLen int64, reason error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var off int64
	for {
		var hdr [5]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return recs, off, nil // clean end
			}
			return recs, off, fmt.Errorf("torn record header at offset %d", off)
		}
		typ := hdr[0]
		if typ != recRegister && typ != recMutate && typ != recDrop {
			return recs, off, fmt.Errorf("unknown record type %d at offset %d", typ, off)
		}
		n := binary.LittleEndian.Uint32(hdr[1:])
		if n > maxRecordLen {
			return recs, off, fmt.Errorf("record length %d at offset %d exceeds limit", n, off)
		}
		// Read the bytes that are there rather than allocate the claimed
		// length: a torn or corrupt header can claim up to maxRecordLen.
		payload, err := io.ReadAll(io.LimitReader(br, int64(n)))
		if err != nil || len(payload) < int(n) {
			return recs, off, fmt.Errorf("short record payload at offset %d", off)
		}
		var tail [4]byte
		if _, err := io.ReadFull(br, tail[:]); err != nil {
			return recs, off, fmt.Errorf("record at offset %d missing checksum", off)
		}
		crc := crc32.Update(0, castagnoli, hdr[:])
		crc = crc32.Update(crc, castagnoli, payload)
		if got := binary.LittleEndian.Uint32(tail[:]); got != crc {
			return recs, off, fmt.Errorf("record checksum mismatch at offset %d", off)
		}
		rec, err := unmarshalRecord(typ, payload)
		if err != nil {
			return recs, off, fmt.Errorf("record at offset %d: %w", off, err)
		}
		recs = append(recs, rec)
		off += int64(len(hdr)) + int64(n) + int64(len(tail))
	}
}
