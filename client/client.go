// Package client is the typed Go binding for the gossipd HTTP API: a
// thin, dependency-free wrapper that turns the daemon's v1 wire format
// (wire.go) into method calls. The remote CLI (gossipsim -remote) and
// the daemon's own load tests drive sessions exclusively through it, so
// the bindings cover the whole surface: create, resume-from-checkpoint,
// run-for-N-rounds, state and token queries, checkpoint download,
// event-stream replay and follow, cancel, delete, list, and the
// daemon-wide metrics scrape.
//
// Every method takes a context and honors its cancellation; Run in
// particular is a long poll (it returns when the requested rounds are
// done), so callers bound it with their context, not a client timeout.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// Client talks to one gossipd instance.
type Client struct {
	base string // "http://host:port", no trailing slash
	hc   *http.Client
}

// New returns a client for the daemon at addr ("host:port" or a full
// http:// URL). The underlying http.Client has no timeout — run calls
// are long polls — so bound calls with contexts.
func New(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{base: strings.TrimRight(addr, "/"), hc: &http.Client{}}
}

// Version fetches the daemon's API and format versions.
func (c *Client) Version(ctx context.Context) (Version, error) {
	var v Version
	err := c.doJSON(ctx, http.MethodGet, "/v1/version", nil, &v)
	return v, err
}

// Create builds a new session from req and returns its initial state.
func (c *Client) Create(ctx context.Context, req CreateRequest) (SessionInfo, error) {
	var info SessionInfo
	err := c.doJSON(ctx, http.MethodPost, "/v1/sessions", req, &info)
	return info, err
}

// Resume creates a session from a checkpoint stream (a
// Simulation.Checkpoint / CheckpointFile payload). recordEvents turns on
// server-side event recording like CreateRequest.RecordEvents.
func (c *Client) Resume(ctx context.Context, checkpoint io.Reader, recordEvents bool) (SessionInfo, error) {
	p := "/v1/sessions/resume"
	if recordEvents {
		p += "?record_events=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+p, checkpoint)
	if err != nil {
		return SessionInfo{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	var info SessionInfo
	return info, c.do(req, &info)
}

// List returns every session the daemon holds, resident or evicted.
func (c *Client) List(ctx context.Context) ([]SessionInfo, error) {
	var infos []SessionInfo
	err := c.doJSON(ctx, http.MethodGet, "/v1/sessions", nil, &infos)
	return infos, err
}

// State queries a session's live state without touching it (an evicted
// session reports from its cached meters rather than being revived).
func (c *Client) State(ctx context.Context, id string) (SessionInfo, error) {
	var info SessionInfo
	err := c.doJSON(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id), nil, &info)
	return info, err
}

// Run advances the session rounds more rounds (<= 0: to completion) and
// returns when the scheduler has done so. Canceling ctx cancels the job;
// the session stays at the round boundary it reached.
func (c *Client) Run(ctx context.Context, id string, rounds int) (RunResult, error) {
	var res RunResult
	err := c.doJSON(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/run",
		RunRequest{Rounds: rounds}, &res)
	return res, err
}

// Rebind swaps the session's topology schedule and stability factor at
// its current round boundary — the remote Simulation.Rebind. The
// returned info reflects the new schedule.
func (c *Client) Rebind(ctx context.Context, id string, req RebindRequest) (SessionInfo, error) {
	var info SessionInfo
	err := c.doJSON(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/rebind", req, &info)
	return info, err
}

// Assert evaluates scenario expect assertions against the session's
// results so far. A violation returns a *APIError with Status 409 whose
// Message is the scenario runner's assertion-failure text; nil means
// every assertion holds.
func (c *Client) Assert(ctx context.Context, id string, req AssertRequest) error {
	return c.doJSON(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/assert", req, nil)
}

// TokenCount returns how many tokens node u currently knows.
func (c *Client) TokenCount(ctx context.Context, id string, node int) (TokenCount, error) {
	var tc TokenCount
	err := c.doJSON(ctx, http.MethodGet,
		"/v1/sessions/"+url.PathEscape(id)+"/tokens?node="+strconv.Itoa(node), nil, &tc)
	return tc, err
}

// Checkpoint streams the session's checkpoint — byte-identical to a
// local Simulation.Checkpoint at the same round boundary. The caller
// must Close the reader.
func (c *Client) Checkpoint(ctx context.Context, id string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v1/sessions/"+url.PathEscape(id)+"/checkpoint", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp.Body, nil
}

// EventOptions filter the events endpoint. Zero values leave the
// corresponding constraint open.
type EventOptions struct {
	// Types allow-lists event type wire names ("round_completed", ...).
	Types []string
	// MinRound/MaxRound bound Event.Round inclusively (0 = open).
	MinRound, MaxRound int
	// Follow keeps the NDJSON response open after the replay and streams
	// each line as it is recorded, until the session_end line, session
	// deletion, daemon shutdown, or ctx is canceled.
	Follow bool
}

// Query renders the options as the events endpoint's query string
// ("?filter=...&minround=..."), empty when nothing is constrained. The
// daemon's wire-decoding fuzz uses it to pin both ends of the wire to
// the same dialect.
func (o EventOptions) Query() string {
	q := url.Values{}
	if len(o.Types) > 0 {
		q.Set("filter", strings.Join(o.Types, ","))
	}
	if o.MinRound > 0 {
		q.Set("minround", strconv.Itoa(o.MinRound))
	}
	if o.MaxRound > 0 {
		q.Set("maxround", strconv.Itoa(o.MaxRound))
	}
	if o.Follow {
		q.Set("follow", "1")
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// Events streams the session's recorded event log as NDJSON
// (application/x-ndjson — unfiltered, the bytes a local -events file
// would hold): the replay so far, and with Follow the rest as it is
// recorded. The session must record events. The caller must Close the
// reader.
func (c *Client) Events(ctx context.Context, id string, opts EventOptions) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/sessions/"+url.PathEscape(id)+"/events"+opts.Query(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp.Body, nil
}

// Cancel cancels the session's pending and in-flight run jobs. The
// session stays at the round boundary it reached, fully usable.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.doJSON(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/cancel", nil, nil)
}

// Delete removes the session and its on-disk state (eviction checkpoint,
// recorded events).
func (c *Client) Delete(ctx context.Context, id string) error {
	return c.doJSON(ctx, http.MethodDelete, "/v1/sessions/"+url.PathEscape(id), nil, nil)
}

// Metrics scrapes the daemon-wide /metrics endpoint and returns the
// Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// doJSON performs one JSON request/response round trip. body may be nil
// (no request body); out may be nil (response body discarded).
func (c *Client) doJSON(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.do(req, out)
}

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeError turns a non-2xx response into an *APIError, falling back
// to the raw body when it is not the standard JSON error shape.
func decodeError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 64*1024))
	apiErr := &APIError{Status: resp.StatusCode}
	if err := json.Unmarshal(b, apiErr); err != nil || apiErr.Message == "" {
		apiErr.Message = fmt.Sprintf("gossipd: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return apiErr
}
