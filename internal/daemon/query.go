package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"mobilegossip/client"
	"mobilegossip/internal/events"
)

// This file is the daemon's wire-decoding boundary: every byte sequence
// a client can put on the wire funnels through decodeCreateRequest or
// parseEventsQuery before it reaches the simulator. Both are pure
// functions of their input — no I/O, no daemon state — which is what
// makes them fuzzable (see fuzz_test.go): the invariant under fuzzing is
// "reject or normalize, never panic".

// maxCreateBody bounds the session-create JSON body. The largest honest
// request is well under a kilobyte; a megabyte leaves room for growth
// while keeping a hostile body from ballooning the decoder.
const maxCreateBody = 1 << 20

// decodeCreateRequest parses a session-create JSON body strictly:
// unknown fields are errors (they are usually typos — silently dropping
// "epsilon_" would run a different experiment than the client asked
// for), as is trailing garbage after the object.
func decodeCreateRequest(body []byte) (client.CreateRequest, error) {
	var req client.CreateRequest
	if len(body) > maxCreateBody {
		return req, fmt.Errorf("request body exceeds %d bytes", maxCreateBody)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("decoding create request: %w", err)
	}
	if dec.More() {
		return req, fmt.Errorf("decoding create request: trailing data after JSON object")
	}
	return req, nil
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
			switch val {
			case "1", "true":
				follow = true
			case "0", "false", "":
				follow = false
			default:
				return f, false, fmt.Errorf("events query: follow must be 0/1/true/false, got %q", val)
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
