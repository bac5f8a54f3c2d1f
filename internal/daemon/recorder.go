package daemon

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"mobilegossip/internal/events"
)

// recorder is a session's lossless event log: fed synchronously by
// session.observe with the logical run's events, it appends one JSON
// line per event to a file in the daemon's state directory. File-backed
// (not in-memory) so recorded streams survive eviction without holding
// memory for evicted sessions — the whole point of checkpoint-backed
// eviction.
//
// The file is also what the events endpoint serves, replay and follow
// alike: a reader asks tail how far the flushed file reaches and, when
// it has read everything, waits on a channel the next appended line
// closes. Readers never touch the bus or the session lock, so however
// slowly a follower reads it loses nothing. A session with no follower
// pays nothing for this; a follower that keeps up costs up to one flush
// per recorded line, which observe waits for on r.mu.
type recorder struct {
	path  string
	lines atomic.Int64

	mu sync.Mutex
	f  *os.File      // nil while the session is evicted
	bw *bufio.Writer // nil while the session is evicted
	// buf is the reused AppendJSON scratch, so steady-state recording
	// costs one buffered write and zero allocations per event.
	buf []byte
	err error
	// size is the recorded stream's length in bytes; all of it is in the
	// file once bw is flushed. end is the offset just past the first
	// session_end line (0 before it): where a follow stream stops.
	size, end int64
	// retired: the session was deleted and nothing more will be
	// recorded.
	retired bool
	// wake is closed by the next append (or retire) when a reader waits
	// for one, and nil while none does, so recording without followers
	// pays nothing for them.
	wake chan struct{}
}

// newRecorder creates (truncating) the session's event log at path.
func newRecorder(path string) (*recorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("daemon: creating event log: %w", err)
	}
	return &recorder{path: path, f: f, bw: bufio.NewWriter(f)}, nil
}

// observe appends the event's line.
func (r *recorder) observe(ev events.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bw == nil {
		// Evicted sessions have no subscriptions, so nothing should
		// arrive here; guard anyway rather than crash the daemon.
		return
	}
	r.buf = ev.AppendJSON(r.buf[:0])
	r.buf = append(r.buf, '\n')
	if _, err := r.bw.Write(r.buf); err != nil {
		if r.err == nil {
			r.err = err
		}
	} else {
		r.lines.Add(1)
		r.size += int64(len(r.buf))
		if ev.Type == events.TypeSessionEnd {
			r.end = r.size
		}
	}
	r.wakeLocked()
}

func (r *recorder) wakeLocked() {
	if r.wake != nil {
		close(r.wake)
		r.wake = nil
	}
}

// close flushes and closes the file on eviction. Idempotent.
func (r *recorder) close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closeLocked()
}

// retire closes the file for good (session deletion) and ends every
// follower once it has read what was recorded.
func (r *recorder) retire() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closeLocked()
	r.retired = true
	r.wakeLocked()
}

func (r *recorder) closeLocked() error {
	if r.bw == nil {
		return r.err
	}
	if err := r.bw.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	if err := r.f.Close(); err != nil && r.err == nil {
		r.err = err
	}
	r.bw, r.f = nil, nil
	return r.err
}

// reopen resumes appending after a revival.
func (r *recorder) reopen() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bw != nil {
		return nil
	}
	f, err := os.OpenFile(r.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		if r.err == nil {
			r.err = err
		}
		return err
	}
	r.f, r.bw = f, bufio.NewWriter(f)
	return nil
}

// tail flushes pending writes and reports how far a reader at offset
// off may read: the flushed end of the record or, for a follower, the
// end of its first session_end line. over says the stream ends there (a
// replay, a session_end, a deleted session); otherwise, when there is
// nothing new to read, wait is a channel the next appended line (or the
// deletion) closes.
func (r *recorder) tail(off int64, follow bool) (limit int64, over bool, wait <-chan struct{}, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil && r.bw != nil {
		r.err = r.bw.Flush()
	}
	if r.err != nil {
		return 0, false, nil, r.err
	}
	limit, over = r.size, !follow || r.retired
	if follow && r.end > 0 {
		limit, over = r.end, true
	}
	if !over && limit <= off {
		if r.wake == nil {
			r.wake = make(chan struct{})
		}
		wait = r.wake
	}
	return limit, over, wait, nil
}

// filterLines keeps the raw JSONL lines whose decoded event matches f.
func filterLines(raw []byte, f events.Filter) ([]byte, error) {
	var out []byte
	for len(raw) > 0 {
		nl := len(raw)
		if i := bytes.IndexByte(raw, '\n'); i >= 0 {
			nl = i + 1
		}
		line := raw[:nl]
		raw = raw[nl:]
		trimmed := line
		if n := len(trimmed); n > 0 && trimmed[n-1] == '\n' {
			trimmed = trimmed[:n-1]
		}
		if len(trimmed) == 0 {
			continue
		}
		ev, err := events.UnmarshalEvent(trimmed)
		if err != nil {
			return nil, err
		}
		if f.Match(ev) {
			out = append(out, line...)
		}
	}
	return out, nil
}
