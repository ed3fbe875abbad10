package obsv

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SlowLog emits one JSON line per over-threshold request — the
// structured slow-query log. A nil *SlowLog is a valid, disabled log:
// every method no-ops, so the serving hot path carries no conditional
// beyond the nil receiver check.
type SlowLog struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
}

// NewSlowLog returns a slow-query log writing to w for requests at or
// above threshold (0 logs everything). A nil w returns a nil (i.e.
// disabled) log.
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	if w == nil {
		return nil
	}
	if threshold < 0 {
		threshold = 0
	}
	return &SlowLog{w: w, threshold: threshold}
}

// Should reports whether a request of the given duration should be
// logged.
func (l *SlowLog) Should(elapsed time.Duration) bool {
	return l != nil && elapsed >= l.threshold
}

// Record marshals entry as one JSON line and returns the marshal or
// write error, if any. Entries are serialized under a mutex so
// concurrent requests never interleave bytes.
func (l *SlowLog) Record(entry any) error {
	if l == nil {
		return nil
	}
	b, err := json.Marshal(entry)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err = l.w.Write(b)
	return err
}
