package events

import (
	"bufio"
	"io"
	"sync"
	"sync/atomic"
)

// JSONLSink streams events to an io.Writer as one JSON line per event
// (the schema-versioned encoding of Event.AppendJSON). It is a
// synchronous subscriber, like the daemon's recorder: each event is
// encoded into a reused buffer and handed to a bufio.Writer on the
// publishing goroutine, so the stream is lossless and steady-state
// recording allocates nothing. Close detaches, flushes, and reports the
// first write error.
type JSONLSink struct {
	cancel  func()
	bw      *bufio.Writer
	buf     []byte
	written atomic.Int64
	dropped atomic.Int64

	mu  sync.Mutex
	err error
}

// NewJSONLSink subscribes a sink writing the events matching f to w.
// buffer is accepted and ignored (delivery is synchronous). Call Close
// to stop recording and flush.
func NewJSONLSink(bus *Bus, w io.Writer, f Filter, buffer int) *JSONLSink {
	s := &JSONLSink{bw: bufio.NewWriter(w)}
	s.cancel = bus.SubscribeSync(f, s.write)
	return s
}

// write is the bus handler. The bus serializes its calls, and Close
// detaches before it flushes, so bw and buf need no lock of their own.
func (s *JSONLSink) write(ev Event) {
	s.buf = ev.AppendJSON(s.buf[:0])
	s.buf = append(s.buf, '\n')
	if _, err := s.bw.Write(s.buf); err != nil {
		// The event is lost: count it now, so a dying writer is visible
		// mid-run and not only at Close.
		s.setErr(err)
		s.dropped.Add(1)
		return
	}
	s.written.Add(1)
}

// Close unsubscribes, flushes the writer, and returns the first write
// error (also available via Err). It does not close the underlying
// writer.
func (s *JSONLSink) Close() error {
	s.cancel()
	if err := s.bw.Flush(); err != nil {
		s.setErr(err)
	}
	return s.Err()
}

// Written returns the number of lines successfully handed to the
// buffered writer so far.
func (s *JSONLSink) Written() int64 { return s.written.Load() }

// Dropped returns how many matching events were lost to write errors
// (each failed write also sets Err).
func (s *JSONLSink) Dropped() int64 { return s.dropped.Load() }

// Err returns the first write error encountered, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *JSONLSink) setErr(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}
