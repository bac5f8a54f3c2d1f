package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"

	"mobilegossip/client"
	"mobilegossip/internal/events"
)

// This file is the daemon's wire-decoding boundary: every byte sequence
// a client can put on the wire funnels through decodeCreateRequest,
// decodeRunRequest, decodeRebindRequest, parseEventsQuery or
// parseResumeQuery before it reaches the simulator. All five are pure
// functions of their input — no I/O, no daemon state — which is what makes
// them fuzzable (see fuzz_test.go): the invariant under fuzzing is "reject
// or normalize, never panic".

// The body caps keep a hostile body from ballooning the decoder. The
// largest honest create request is well under a kilobyte, and a megabyte
// leaves room for growth; a run body is one integer; a rebind body is one
// topology.
const (
	maxCreateBody = 1 << 20
	maxRunBody    = 4 << 10
	maxRebindBody = 64 << 10
)

// decodeCreateRequest parses a session-create JSON body strictly (see
// decodeStrict).
func decodeCreateRequest(body []byte) (client.CreateRequest, error) {
	var req client.CreateRequest
	return req, decodeStrict("create", body, maxCreateBody, &req)
}

// decodeRunRequest parses a run body strictly (see decodeStrict). An empty
// body, or one of whitespace only, is the zero request: rounds = 0, run to
// completion.
func decodeRunRequest(body []byte) (client.RunRequest, error) {
	var req client.RunRequest
	if len(body) <= maxRunBody && len(bytes.TrimSpace(body)) == 0 {
		return req, nil
	}
	return req, decodeStrict("run", body, maxRunBody, &req)
}

// decodeRebindRequest parses a rebind body strictly (see decodeStrict).
func decodeRebindRequest(body []byte) (client.RebindRequest, error) {
	var req client.RebindRequest
	return req, decodeStrict("rebind", body, maxRebindBody, &req)
}

// decodeStrict decodes body, at most limit bytes, into the one JSON value v
// points at. Unknown fields are errors (they are usually typos — silently
// dropping "epsilon_" would run a different experiment than the client
// asked for), and so is anything but whitespace after the value: a second
// object, a stray brace, garbage.
func decodeStrict(what string, body []byte, limit int, v any) error {
	if len(body) > limit {
		return fmt.Errorf("%s request body exceeds %d bytes", what, limit)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding %s request: %w", what, err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("decoding %s request: trailing data after JSON value", what)
	}
	return nil
}

// parseEventsQuery parses the events endpoint's query string into an
// event filter plus the follow flag:
//
//	filter=TYPE[,TYPE...]  type allow-list (empty/absent: every type)
//	minround=N, maxround=N inclusive round window (0: open)
//	follow=1|true          after the replay, tail the record until session_end
//
// Unknown parameters are rejected for the same reason unknown JSON
// fields are: a typo like "fitler=" silently streaming everything is
// worse than an error.
func parseEventsQuery(rawQuery string) (events.Filter, bool, error) {
	var f events.Filter
	q, err := url.ParseQuery(rawQuery)
	if err != nil {
		return f, false, fmt.Errorf("parsing events query: %w", err)
	}
	follow := false
	for key, vals := range q {
		val := vals[len(vals)-1]
		switch key {
		case "filter":
			if val == "" {
				continue
			}
			for _, name := range strings.Split(val, ",") {
				t, err := events.ParseType(strings.TrimSpace(name))
				if err != nil {
					return f, false, err
				}
				f.Types = append(f.Types, t)
			}
		case "minround", "maxround":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return f, false, fmt.Errorf("events query: %s must be a non-negative integer, got %q", key, val)
			}
			if key == "minround" {
				f.MinRound = n
			} else {
				f.MaxRound = n
			}
		case "follow":
			if follow, err = parseFlag("events", key, val); err != nil {
				return f, false, err
			}
		default:
			return f, false, fmt.Errorf("events query: unknown parameter %q", key)
		}
	}
	if f.MinRound > 0 && f.MaxRound > 0 && f.MinRound > f.MaxRound {
		return f, false, fmt.Errorf("events query: minround %d exceeds maxround %d", f.MinRound, f.MaxRound)
	}
	return f, follow, nil
}

// parseResumeQuery parses the resume endpoint's query string:
//
//	record_events=1|true   record the resumed session's events
//
// Unknown parameters are rejected, as parseEventsQuery rejects them: a
// misspelt "recordevents=1" must not resume a session that records
// nothing.
func parseResumeQuery(rawQuery string) (record bool, err error) {
	q, err := url.ParseQuery(rawQuery)
	if err != nil {
		return false, fmt.Errorf("parsing resume query: %w", err)
	}
	for key, vals := range q {
		if key != "record_events" {
			return false, fmt.Errorf("resume query: unknown parameter %q", key)
		}
		if record, err = parseFlag("resume", key, vals[len(vals)-1]); err != nil {
			return false, err
		}
	}
	return record, nil
}

// parseFlag reads a boolean query parameter in the one vocabulary every
// endpoint accepts: 1 or true, 0 or false, or empty (false).
func parseFlag(endpoint, key, val string) (bool, error) {
	switch val {
	case "1", "true":
		return true, nil
	case "0", "false", "":
		return false, nil
	}
	return false, fmt.Errorf("%s query: %s must be 0/1/true/false, got %q", endpoint, key, val)
}
