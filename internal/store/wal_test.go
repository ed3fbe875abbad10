package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func walRecords(t *testing.T) []*Record {
	t.Helper()
	return []*Record{
		{Type: recRegister, Name: "g", Version: 1, M: 4, N: 4, Count: 1,
			Edges: [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}},
		{Type: recMutate, Name: "g", Version: 2, Count: 3, NumEdges: 6,
			Inserts: [][2]int{{2, 0}, {2, 1}}, Deletes: nil},
		{Type: recMutate, Name: "g", Version: 3, Count: 1, NumEdges: 4,
			Deletes: [][2]int{{2, 0}, {2, 1}}},
		{Type: recDrop, Name: "g"},
		{Type: recRegister, Name: "h", Version: 1, M: 1, N: 2, Count: 0,
			Edges: [][2]int{{0, 0}, {0, 1}}},
	}
}

func appendAll(t *testing.T, w *WAL, recs []*Record) {
	t.Helper()
	for i, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func TestWALAppendScanRoundTrip(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			w, err := openWAL(path, policy, 5*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			recs := walRecords(t)
			appendAll(t, w, recs)
			if w.Size() <= 0 {
				t.Fatal("wal size not tracked")
			}
			if err := w.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			got, validLen, reason := scanWAL(f)
			if reason != nil {
				t.Fatalf("clean log scanned dirty: %v", reason)
			}
			st, _ := f.Stat()
			if validLen != st.Size() {
				t.Fatalf("validLen %d != file size %d", validLen, st.Size())
			}
			if len(got) != len(recs) {
				t.Fatalf("scanned %d records, want %d", len(got), len(recs))
			}
			for i := range recs {
				want := *recs[i]
				// Register edge sets round-trip as sets (delta coding
				// sorts); these are already sorted.
				if !reflect.DeepEqual(normalizeRec(got[i]), normalizeRec(&want)) {
					t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], &want)
				}
			}
		})
	}
}

func normalizeRec(r *Record) Record {
	c := *r
	if len(c.Edges) == 0 {
		c.Edges = nil
	}
	if len(c.Inserts) == 0 {
		c.Inserts = nil
	}
	if len(c.Deletes) == 0 {
		c.Deletes = nil
	}
	return c
}

// TestWALGroupCommit holds the first fsync hostage until 8 concurrent
// appenders have all written, then checks the whole window committed
// under at most two fsyncs — the group-commit guarantee that makes
// fsync=always affordable.
func TestWALGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := openWAL(path, FsyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const writers = 8
	gate := make(chan struct{})
	var gateOnce sync.Once
	var syncs atomic.Int64
	realSync := w.syncFn
	w.syncFn = func() error {
		n := syncs.Add(1)
		if n == 1 {
			gateOnce.Do(func() {}) // first sync reached
			<-gate                 // stall until every writer has appended
		}
		return realSync()
	}

	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Append(&Record{Type: recDrop, Name: "g"})
		}(i)
	}
	// Wait until all 8 records are written to the file (the appends
	// block afterwards, in commitWait), then release the leader.
	deadline := time.Now().Add(10 * time.Second)
	for w.seq.Load() < writers {
		if time.Now().After(deadline) {
			t.Fatal("appenders never all wrote")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if n := syncs.Load(); n < 1 || n > 2 {
		t.Fatalf("%d appends took %d fsyncs, want 1-2 (group commit broken)", writers, n)
	}
}

// TestWALFsyncErrorIsSticky checks that one failed fsync poisons the
// WAL: the failing append errors and so does every later one — the
// log can no longer keep its durability promise.
func TestWALFsyncErrorIsSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := openWAL(path, FsyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	fail := true
	w.syncFn = func() error {
		if fail {
			return boom
		}
		return nil
	}
	if err := w.Append(&Record{Type: recDrop, Name: "g"}); !errors.Is(err, boom) {
		t.Fatalf("append after failed fsync = %v, want %v", err, boom)
	}
	fail = false // even a healed disk must not revive the log
	if err := w.Append(&Record{Type: recDrop, Name: "g"}); !errors.Is(err, boom) {
		t.Fatalf("append after poisoned WAL = %v, want sticky %v", err, boom)
	}
}

// TestScanWALTornTail truncates a valid log at every byte boundary of
// its final record; the scan must always surface exactly the earlier
// records and report the torn tail.
func TestScanWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := openWAL(path, FsyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecords(t)
	appendAll(t, w, recs[:len(recs)-1])
	cut := w.Size() // offset where the last record starts
	appendAll(t, w, recs[len(recs)-1:])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Cutting exactly at the record boundary is not a torn log: it is
	// simply a shorter clean log.
	if _, validLen, reason := scanWAL(bytes.NewReader(full[:cut])); reason != nil || validLen != cut {
		t.Fatalf("boundary cut: validLen %d reason %v, want %d <nil>", validLen, reason, cut)
	}
	for n := cut + 1; n < int64(len(full)); n++ {
		got, validLen, reason := scanWAL(bytes.NewReader(full[:n]))
		if reason == nil {
			t.Fatalf("torn log (cut at %d of %d) scanned clean", n, len(full))
		}
		if validLen != cut {
			t.Fatalf("cut at %d: validLen %d, want %d", n, validLen, cut)
		}
		if len(got) != len(recs)-1 {
			t.Fatalf("cut at %d: %d records, want %d", n, len(got), len(recs)-1)
		}
	}
}

// TestScanWALFlippedByte flips every byte of a middle record; the
// scan must stop before it (never resynchronize past corruption).
func TestScanWALFlippedByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := openWAL(path, FsyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecords(t)
	appendAll(t, w, recs[:2])
	start := w.Size()
	appendAll(t, w, recs[2:3])
	end := w.Size()
	appendAll(t, w, recs[3:])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for i := start; i < end; i++ {
		mutant := bytes.Clone(full)
		mutant[i] ^= 0xA5
		got, validLen, reason := scanWAL(bytes.NewReader(mutant))
		if reason == nil {
			t.Fatalf("flip at %d scanned clean", i)
		}
		if validLen != start {
			t.Fatalf("flip at %d: validLen %d, want %d", i, validLen, start)
		}
		if len(got) != 2 {
			t.Fatalf("flip at %d: %d records survive, want 2", i, len(got))
		}
	}
}

func TestWALTruncateResetsSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := openWAL(path, FsyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendAll(t, w, walRecords(t))
	if w.Size() == 0 {
		t.Fatal("size zero after appends")
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	if w.Size() != 0 {
		t.Fatalf("size %d after truncate, want 0", w.Size())
	}
	// The log must remain appendable after compaction.
	if err := w.Append(&Record{Type: recDrop, Name: "g"}); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	f, _ := os.Open(path)
	defer f.Close()
	got, _, reason := scanWAL(f)
	if reason != nil || len(got) != 1 {
		t.Fatalf("post-truncate log: %d records, reason %v", len(got), reason)
	}
}

// FuzzScanWAL: the scan never panics on arbitrary bytes, its valid
// prefix lies within the input, and re-scanning exactly that prefix
// returns the same records with no error reason.
func FuzzScanWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validLen, _ := scanWAL(bytes.NewReader(data))
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside the %d-byte input", validLen, len(data))
		}
		again, againLen, reason := scanWAL(bytes.NewReader(data[:validLen]))
		if reason != nil || againLen != validLen {
			t.Fatalf("re-scan of the %d-byte valid prefix: validLen %d reason %v", validLen, againLen, reason)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("re-scan of the valid prefix changed the records:\n got %+v\nwant %+v", again, recs)
		}
	})
}
