package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"slices"
	"strconv"

	"mobilegossip"
	"mobilegossip/client"
	"mobilegossip/internal/events"
)

// Handler returns the daemon's HTTP surface: the /v1 session tree plus
// /metrics. The concrete mux comes back so callers can mount extras
// (gossipd -pprof mounts httpserve.MountPprof on it).
func (d *Daemon) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/version", d.handleVersion)
	mux.HandleFunc("POST /v1/sessions", d.handleCreate)
	mux.HandleFunc("GET /v1/sessions", d.handleList)
	mux.HandleFunc("POST /v1/sessions/resume", d.handleResume)
	mux.HandleFunc("GET /v1/sessions/{id}", d.handleState)
	mux.HandleFunc("DELETE /v1/sessions/{id}", d.handleDelete)
	mux.HandleFunc("POST /v1/sessions/{id}/run", d.handleRun)
	mux.HandleFunc("POST /v1/sessions/{id}/rebind", d.handleRebind)
	mux.HandleFunc("POST /v1/sessions/{id}/assert", d.handleAssert)
	mux.HandleFunc("POST /v1/sessions/{id}/checkpoint", d.handleCheckpoint)
	mux.HandleFunc("POST /v1/sessions/{id}/cancel", d.handleCancel)
	mux.HandleFunc("GET /v1/sessions/{id}/tokens", d.handleTokens)
	mux.HandleFunc("GET /v1/sessions/{id}/events", d.handleEvents)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	return mux
}

// writeJSON encodes v with a status; encode errors past the header are
// unreportable and dropped.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeErr maps daemon errors onto HTTP statuses and the APIError body.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var assertErr *assertFailure
	switch {
	case errors.Is(err, errNoSession):
		status = http.StatusNotFound
	case errors.Is(err, errFailed), errors.As(err, &assertErr):
		status = http.StatusConflict
	case errors.Is(err, errShuttingDown):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, &client.APIError{Message: err.Error()})
}

func (d *Daemon) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, client.Version{
		API:               "v1",
		CheckpointVersion: mobilegossip.CheckpointVersion,
		EventSchema:       events.Schema,
	})
}

func (d *Daemon) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxCreateBody+1))
	if err != nil {
		writeErr(w, fmt.Errorf("reading request body: %w", err))
		return
	}
	req, err := decodeCreateRequest(body)
	if err != nil {
		writeErr(w, err)
		return
	}
	info, err := d.Create(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (d *Daemon) handleResume(w http.ResponseWriter, r *http.Request) {
	record := r.URL.Query().Get("record_events") == "1"
	info, err := d.ResumeUpload(r.Body, record)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (d *Daemon) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.List())
}

func (d *Daemon) handleState(w http.ResponseWriter, r *http.Request) {
	info, err := d.State(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (d *Daemon) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := d.Delete(r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleRun long-polls: the response arrives when the job reaches its
// target (or finishes, or is canceled). A client disconnect cancels the
// job via the request context, so an abandoned run stops consuming
// scheduler slices.
func (d *Daemon) handleRun(w http.ResponseWriter, r *http.Request) {
	var req client.RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeErr(w, fmt.Errorf("decoding run request: %w", err))
		return
	}
	res, err := d.Run(r.Context(), r.PathValue("id"), req.Rounds)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (d *Daemon) handleRebind(w http.ResponseWriter, r *http.Request) {
	var req client.RebindRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64*1024))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("decoding rebind request: %w", err))
		return
	}
	info, err := d.Rebind(r.PathValue("id"), req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (d *Daemon) handleAssert(w http.ResponseWriter, r *http.Request) {
	var req client.AssertRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64*1024))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("decoding assert request: %w", err))
		return
	}
	if err := d.Assert(r.PathValue("id"), req); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (d *Daemon) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Reviving and serializing under the session lock can't stream
	// straight to the response: an error mid-stream would corrupt the
	// download. The checkpoint is small (DESIGN.md §10); buffer it.
	s, err := d.get(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	var buf writerBuffer
	if err := d.Checkpoint(s.id, &buf); err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
}

// writerBuffer is bytes.Buffer's Write without the rest of it.
type writerBuffer []byte

func (b *writerBuffer) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := d.Cancel(r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (d *Daemon) handleTokens(w http.ResponseWriter, r *http.Request) {
	node, err := strconv.Atoi(r.URL.Query().Get("node"))
	if err != nil {
		writeErr(w, fmt.Errorf("tokens query: node must be an integer"))
		return
	}
	tc, err := d.TokenCount(r.PathValue("id"), node)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, tc)
}

// handleEvents serves the session's recorded event stream as NDJSON (one
// event JSON line per event, the internal/events line format), filtered
// server-side by ?filter=&minround=&maxround= — unfiltered, it is
// byte-identical to the JSONL a local run's event sink writes.
//
//   - Replay: the lines recorded so far.
//   - Follow (?follow=1): the same replay from the start of the record,
//     after which the response stays open and keeps reading the record
//     as it grows. It ends after the session_end line (even when the
//     filter excludes that line), on session delete, on client
//     disconnect and on daemon shutdown.
//
// Both read the recorder's file, never the bus or the session lock: a
// follower is gapless however slowly it reads, and it neither pins the
// session nor revives an evicted one.
func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	filter, follow, err := parseEventsQuery(r.URL.RawQuery)
	if err != nil {
		writeErr(w, err)
		return
	}
	s, err := d.get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	s.touch()
	if s.rec == nil {
		writeErr(w, fmt.Errorf("session %s: %w", s.id, errNotRecorded))
		return
	}
	f, err := os.Open(s.rec.path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			err = errNoSession // deleted since the lookup
		}
		writeErr(w, err)
		return
	}
	defer f.Close()
	limit, over, wait, err := s.rec.tail(0, follow)
	if err != nil {
		writeErr(w, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if !follow {
		flusher = nil // a replay is one response body
	} else if flusher != nil {
		flusher.Flush() // a follower's client returns once it has the headers
	}
	unfiltered := len(filter.Types) == 0 && filter.MinRound == 0 && filter.MaxRound == 0
	var off int64
	var buf []byte
	for {
		if limit > off {
			buf = slices.Grow(buf[:0], int(limit-off))[:limit-off]
			if _, err := f.ReadAt(buf, off); err != nil {
				return
			}
			off = limit
			out := buf
			if !unfiltered {
				if out, err = filterLines(buf, filter); err != nil {
					return
				}
			}
			if _, err := w.Write(out); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if over {
			return
		}
		if wait != nil {
			select {
			case <-wait:
			case <-r.Context().Done():
				return
			case <-d.stop:
				return
			}
		}
		if limit, over, wait, err = s.rec.tail(off, follow); err != nil {
			return
		}
	}
}

func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = d.WriteMetrics(w)
}
