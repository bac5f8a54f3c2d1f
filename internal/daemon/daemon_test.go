package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mobilegossip"
	"mobilegossip/client"
	"mobilegossip/internal/events"
)

// testWire is the canonical session request the tests drive: small and
// quick, but dynamic (τ=1 regenerates the topology every round, so churn
// and epoch machinery is exercised) and fully deterministic.
func testWire(seed uint64) client.CreateRequest {
	return client.CreateRequest{
		Algorithm: "sharedbit",
		N:         64,
		K:         8,
		Topology:  client.TopologySpec{Kind: "regular", Degree: 4},
		Tau:       1,
		Seed:      seed,
	}
}

// localConfig is testWire's in-process twin.
func localConfig(seed uint64) mobilegossip.Config {
	return mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit,
		N:         64,
		K:         8,
		Topology:  mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4},
		Tau:       1,
		Seed:      seed,
	}
}

// newTestDaemon builds a daemon on a per-test state dir plus an
// httptest server and typed client over it.
func newTestDaemon(t *testing.T, cfg Config) (*Daemon, *client.Client) {
	t.Helper()
	cfg.StateDir = t.TempDir()
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Close()
	})
	return d, client.New(srv.URL)
}

// localEventStream runs cfg to completion in-process and returns the
// lossless event JSONL a synchronous subscriber sees — the reference the
// daemon's recorded stream must match byte for byte.
func localEventStream(t *testing.T, cfg mobilegossip.Config) ([]byte, mobilegossip.Result) {
	t.Helper()
	sim, err := mobilegossip.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return runRecorded(t, sim)
}

// runRecorded runs sim to completion and returns the event JSONL a
// synchronous subscriber sees.
func runRecorded(t *testing.T, sim *mobilegossip.Simulation) ([]byte, mobilegossip.Result) {
	t.Helper()
	var buf []byte
	sim.Bus().SubscribeSync(events.Filter{}, func(ev events.Event) {
		buf = ev.AppendJSON(buf)
		buf = append(buf, '\n')
	})
	res, err := sim.Run(context.Background())
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	return buf, res
}

func TestDaemonSessionLifecycle(t *testing.T) {
	_, c := newTestDaemon(t, Config{SliceRounds: 8})
	ctx := context.Background()

	v, err := c.Version(ctx)
	if err != nil {
		t.Fatalf("Version: %v", err)
	}
	if v.API != "v1" || v.CheckpointVersion != mobilegossip.CheckpointVersion || v.EventSchema != events.Schema {
		t.Fatalf("Version = %+v", v)
	}

	info, err := c.Create(ctx, testWire(11))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if info.Status != "idle" || info.Round != 0 || info.N != 64 || info.K != 8 {
		t.Fatalf("created info = %+v", info)
	}

	// Advance 5 rounds, then query state.
	rr, err := c.Run(ctx, info.ID, 5)
	if err != nil {
		t.Fatalf("Run(5): %v", err)
	}
	if rr.Session.Round != 5 || rr.Canceled {
		t.Fatalf("after Run(5): %+v", rr.Session)
	}
	st, err := c.State(ctx, info.ID)
	if err != nil || st.Round != 5 {
		t.Fatalf("State: %+v, %v", st, err)
	}

	// Run to completion; the wire result must equal the local run's.
	rr, err = c.Run(ctx, info.ID, 0)
	if err != nil {
		t.Fatalf("Run(0): %v", err)
	}
	want, err := mobilegossip.Run(localConfig(11))
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	if !rr.Solved || rr.Rounds != want.Rounds || rr.Connections != want.Connections ||
		rr.TokensMoved != want.TokensMoved || rr.FinalPotential != want.FinalPotential {
		t.Fatalf("remote result %+v != local %+v", rr, want)
	}
	if !rr.Session.Done || !rr.Session.Solved || rr.Session.Status != "idle" {
		t.Fatalf("final session info = %+v", rr.Session)
	}

	infos, err := c.List(ctx)
	if err != nil || len(infos) != 1 || infos[0].ID != info.ID {
		t.Fatalf("List: %+v, %v", infos, err)
	}
	if err := c.Delete(ctx, info.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := c.State(ctx, info.ID); err == nil {
		t.Fatal("State after Delete succeeded")
	} else if apiErr := new(client.APIError); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("State after Delete: %v", err)
	}
}

func TestDaemonCheckpointMatchesLocal(t *testing.T) {
	_, c := newTestDaemon(t, Config{})
	ctx := context.Background()
	info, err := c.Create(ctx, testWire(3))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := c.Run(ctx, info.ID, 7); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rc, err := c.Checkpoint(ctx, info.ID)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	remote, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatalf("reading checkpoint: %v", err)
	}

	sim, err := mobilegossip.New(localConfig(3))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for sim.Round() < 7 {
		if _, err := sim.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	var local bytes.Buffer
	if err := sim.Checkpoint(&local); err != nil {
		t.Fatalf("local Checkpoint: %v", err)
	}
	if !bytes.Equal(remote, local.Bytes()) {
		t.Fatalf("remote checkpoint (%d bytes) differs from local (%d bytes)", len(remote), local.Len())
	}

	// The downloaded checkpoint resumes into a session that finishes
	// identically to the local one.
	info2, err := c.Resume(ctx, bytes.NewReader(remote), false)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if info2.Round != 7 {
		t.Fatalf("resumed at round %d, want 7", info2.Round)
	}
	rr, err := c.Run(ctx, info2.ID, 0)
	if err != nil {
		t.Fatalf("Run resumed: %v", err)
	}
	want, err := mobilegossip.Run(localConfig(3))
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	if rr.Rounds != want.Rounds || rr.Connections != want.Connections || rr.ControlBits != want.ControlBits {
		t.Fatalf("resumed result %+v != local %+v", rr, want)
	}
}

func TestDaemonRecordedEventsMatchLocal(t *testing.T) {
	_, c := newTestDaemon(t, Config{SliceRounds: 4})
	ctx := context.Background()
	req := testWire(21)
	req.RecordEvents = true
	info, err := c.Create(ctx, req)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := c.Run(ctx, info.ID, 0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rc, err := c.Events(ctx, info.ID, client.EventOptions{})
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	remote, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatalf("reading events: %v", err)
	}
	local, _ := localEventStream(t, localConfig(21))
	if !bytes.Equal(remote, local) {
		t.Fatalf("recorded stream (%d bytes) differs from local (%d bytes)", len(remote), len(local))
	}

	// Server-side filtering returns exactly the matching original lines.
	rc, err = c.Events(ctx, info.ID, client.EventOptions{Types: []string{"round_completed"}, MinRound: 2, MaxRound: 4})
	if err != nil {
		t.Fatalf("Events filtered: %v", err)
	}
	filtered, _ := io.ReadAll(rc)
	rc.Close()
	lines := strings.Split(strings.TrimSuffix(string(filtered), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("filtered lines = %d, want 3:\n%s", len(lines), filtered)
	}
	for _, ln := range lines {
		if !strings.Contains(ln, `"type":"round_completed"`) {
			t.Fatalf("filtered line of wrong type: %s", ln)
		}
		if !strings.Contains(string(local), ln) {
			t.Fatalf("filtered line not verbatim from the stream: %s", ln)
		}
	}
}

// TestDaemonEvictionTransparency is the eviction contract test: a
// session evicted (and revived) mid-run must produce the identical
// result, the identical downloadable checkpoint, and the identical
// recorded event stream as a never-evicted run.
func TestDaemonEvictionTransparency(t *testing.T) {
	d, c := newTestDaemon(t, Config{SliceRounds: 4})
	ctx := context.Background()
	req := testWire(42)
	req.RecordEvents = true
	info, err := c.Create(ctx, req)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := c.Run(ctx, info.ID, 6); err != nil {
		t.Fatalf("Run(6): %v", err)
	}

	s, err := d.get(info.ID)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !d.tryEvict(s) {
		t.Fatal("tryEvict failed on an idle session")
	}
	st, err := c.State(ctx, info.ID)
	if err != nil || st.Status != "evicted" || st.Round != 6 {
		t.Fatalf("evicted state = %+v, %v", st, err)
	}
	if _, err := os.Stat(d.ckptPath(info.ID)); err != nil {
		t.Fatalf("eviction checkpoint missing: %v", err)
	}

	// The next run revives transparently and finishes the run.
	rr, err := c.Run(ctx, info.ID, 0)
	if err != nil {
		t.Fatalf("Run after evict: %v", err)
	}
	if rr.Session.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", rr.Session.Evictions)
	}
	localBytes, want := localEventStream(t, localConfig(42))
	if !rr.Solved || rr.Rounds != want.Rounds || rr.Connections != want.Connections ||
		rr.ControlBits != want.ControlBits || rr.TokensMoved != want.TokensMoved {
		t.Fatalf("evicted-run result %+v != local %+v", rr, want)
	}

	checkStream := func(when string) {
		t.Helper()
		rc, err := c.Events(ctx, info.ID, client.EventOptions{})
		if err != nil {
			t.Fatalf("Events: %v", err)
		}
		remote, _ := io.ReadAll(rc)
		rc.Close()
		if !bytes.Equal(remote, localBytes) {
			t.Fatalf("recorded stream %s (%d bytes) differs from uninterrupted local (%d bytes)",
				when, len(remote), len(localBytes))
		}
	}
	checkStream("after evict/revive")

	// A finished run revived from its eviction checkpoint has forgotten
	// that it ended, and a run call on it announces the end again: the
	// record keeps only the first session_end.
	if !d.tryEvict(s) {
		t.Fatal("tryEvict failed on a finished idle session")
	}
	if _, err := c.Run(ctx, info.ID, 0); err != nil {
		t.Fatalf("Run on the revived finished session: %v", err)
	}
	checkStream("after reviving the finished run")
}

// evict checkpoints the idle session id to disk and drops it from memory.
func evict(t *testing.T, d *Daemon, id string) {
	t.Helper()
	s, err := d.get(id)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !d.tryEvict(s) {
		t.Fatalf("tryEvict failed on idle session %s", id)
	}
}

// recordedStream replays the session's recorded event stream.
func recordedStream(t *testing.T, c *client.Client, id string) []byte {
	t.Helper()
	rc, err := c.Events(context.Background(), id, client.EventOptions{})
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("reading events: %v", err)
	}
	return b
}

// counterRows returns the daemon's mobilegossip_* counters by name: the
// collector's count of the logical runs.
func counterRows(t *testing.T, c *client.Client) map[string]string {
	t.Helper()
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		name, value, _ := strings.Cut(line, " ")
		if strings.HasPrefix(name, "mobilegossip_") && strings.HasSuffix(name, "_total") {
			rows[name] = value
		}
	}
	return rows
}

// TestDaemonMetricsCountLogicalRun: evictions and revivals show in
// gossipd_* only. A session evicted before its first step, mid-run and
// after it finished (the last revival runs the finished run again)
// reads the same mobilegossip_* counters and records the same stream as
// that session on a daemon that never evicts; a session created from an
// uploaded checkpoint and evicted before its first step and mid-run
// counts one start and one resume.
func TestDaemonMetricsCountLogicalRun(t *testing.T) {
	ctx := context.Background()
	req := testWire(23)
	req.RecordEvents = true
	local, _ := localEventStream(t, localConfig(23))
	drive := func(evicting bool) map[string]string {
		d, c := newTestDaemon(t, Config{SliceRounds: 4})
		info, err := c.Create(ctx, req)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		for _, rounds := range []int{3, 0, 0} {
			if evicting {
				evict(t, d, info.ID)
			}
			if _, err := c.Run(ctx, info.ID, rounds); err != nil {
				t.Fatalf("Run(%d): %v", rounds, err)
			}
		}
		if got := d.revivals.Load(); evicting && got != 3 {
			t.Fatalf("revivals = %d, want 3", got)
		}
		if got := recordedStream(t, c, info.ID); !bytes.Equal(got, local) {
			t.Fatalf("recorded stream (evicting %v, %d bytes) differs from local (%d bytes)", evicting, len(got), len(local))
		}
		return counterRows(t, c)
	}
	evicted, kept := drive(true), drive(false)
	if kept["mobilegossip_sessions_started_total"] != "1" || kept["mobilegossip_sessions_ended_total"] != "1" {
		t.Fatalf("never-evicted session's counters: %v", kept)
	}
	for name, want := range kept {
		if got := evicted[name]; got != want {
			t.Errorf("%s = %s after 3 evict/revive cycles, %s without", name, got, want)
		}
	}

	// A client resume, evicted before its first step and mid-run.
	sim, err := mobilegossip.New(localConfig(23))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for sim.Round() < 5 {
		if _, err := sim.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	var ckpt bytes.Buffer
	if err := sim.Checkpoint(&ckpt); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	resumed, err := mobilegossip.Resume(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	localResumed, _ := runRecorded(t, resumed)
	d, c := newTestDaemon(t, Config{SliceRounds: 4})
	info, err := c.Resume(ctx, bytes.NewReader(ckpt.Bytes()), true)
	if err != nil {
		t.Fatalf("Resume upload: %v", err)
	}
	for _, rounds := range []int{3, 0} {
		evict(t, d, info.ID)
		if _, err := c.Run(ctx, info.ID, rounds); err != nil {
			t.Fatalf("Run(%d): %v", rounds, err)
		}
	}
	rows := counterRows(t, c)
	for name, want := range map[string]string{
		"mobilegossip_sessions_started_total":    "1",
		"mobilegossip_sessions_resumed_total":    "1",
		"mobilegossip_checkpoints_written_total": "0",
	} {
		if got := rows[name]; got != want {
			t.Errorf("client-resumed session evicted before its first step and mid-run: %s = %s, want %s", name, got, want)
		}
	}
	if got := recordedStream(t, c, info.ID); !bytes.Equal(got, localResumed) {
		t.Fatalf("client-resumed recorded stream (%d bytes) differs from local -resume (%d bytes)", len(got), len(localResumed))
	}
}

// TestDaemonEvictionWriteFailure: an eviction whose checkpoint write
// fails keeps the session resident and subscribed and is counted in
// gossipd_eviction_errors_total only; the run then finishes with the
// stream and counters of an uninterrupted one.
func TestDaemonEvictionWriteFailure(t *testing.T) {
	ctx := context.Background()
	req := testWire(29)
	req.RecordEvents = true
	drive := func(failEviction bool) (*client.Client, string) {
		d, c := newTestDaemon(t, Config{SliceRounds: 4})
		info, err := c.Create(ctx, req)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		if _, err := c.Run(ctx, info.ID, 4); err != nil {
			t.Fatalf("Run(4): %v", err)
		}
		if failEviction {
			// A non-empty directory where the checkpoint goes: the
			// atomic rename into place fails.
			if err := os.MkdirAll(filepath.Join(d.ckptPath(info.ID), "occupied"), 0o755); err != nil {
				t.Fatal(err)
			}
			s, err := d.get(info.ID)
			if err != nil {
				t.Fatalf("get: %v", err)
			}
			if d.tryEvict(s) {
				t.Fatal("tryEvict succeeded over an occupied checkpoint path")
			}
			if n := d.evictErrors.Load(); n != 1 {
				t.Fatalf("eviction errors = %d, want 1", n)
			}
			if st, err := c.State(ctx, info.ID); err != nil || st.Status == "evicted" || st.Evictions != 0 {
				t.Fatalf("after the failed eviction: %+v, %v; want resident", st, err)
			}
		}
		if _, err := c.Run(ctx, info.ID, 0); err != nil {
			t.Fatalf("Run(0): %v", err)
		}
		return c, info.ID
	}
	failed, id := drive(true)
	kept, keptID := drive(false)
	local, _ := localEventStream(t, localConfig(29))
	if got := recordedStream(t, failed, id); !bytes.Equal(got, local) {
		t.Fatalf("recorded stream after a failed eviction (%d bytes) differs from local (%d bytes)", len(got), len(local))
	}
	if got := recordedStream(t, kept, keptID); !bytes.Equal(got, local) {
		t.Fatalf("uninterrupted recorded stream (%d bytes) differs from local (%d bytes)", len(got), len(local))
	}
	got, want := counterRows(t, failed), counterRows(t, kept)
	for name := range want {
		if got[name] != want[name] {
			t.Errorf("%s = %s after a failed eviction, %s without", name, got[name], want[name])
		}
	}
}

// TestDaemonMaxLiveCap drives more sessions than MaxLive and checks the
// daemon holds the resident count at the cap by evicting idle sessions —
// with none of them lost or corrupted.
func TestDaemonMaxLiveCap(t *testing.T) {
	const sessions = 8
	d, c := newTestDaemon(t, Config{MaxLive: 2, SliceRounds: 8})
	ctx := context.Background()
	ids := make([]string, 0, sessions)
	for i := 0; i < sessions; i++ {
		info, err := c.Create(ctx, testWire(uint64(100+i)))
		if err != nil {
			t.Fatalf("Create %d: %v", i, err)
		}
		if _, err := c.Run(ctx, info.ID, 3); err != nil {
			t.Fatalf("Run %d: %v", i, err)
		}
		ids = append(ids, info.ID)
	}
	if live := d.live.Load(); live > 2 {
		t.Fatalf("resident sessions = %d, cap 2", live)
	}
	if d.evictsTotal.Load() == 0 {
		t.Fatal("no evictions despite cap pressure")
	}
	// Every session — resident or evicted — finishes correctly.
	for i, id := range ids {
		rr, err := c.Run(ctx, id, 0)
		if err != nil {
			t.Fatalf("finishing %s: %v", id, err)
		}
		local, err := mobilegossip.Run(localConfig(uint64(100 + i)))
		if err != nil {
			t.Fatalf("local run %d: %v", i, err)
		}
		if !rr.Solved || rr.Rounds != local.Rounds || rr.Connections != local.Connections {
			t.Fatalf("session %s result %+v != local %+v", id, rr, local)
		}
	}
}

func TestDaemonIdleTimeoutJanitor(t *testing.T) {
	d, c := newTestDaemon(t, Config{IdleTimeout: 30 * time.Millisecond})
	ctx := context.Background()
	info, err := c.Create(ctx, testWire(5))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := c.Run(ctx, info.ID, 2); err != nil {
		t.Fatalf("Run: %v", err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		st, err := c.State(ctx, info.ID)
		if err != nil {
			t.Fatalf("State: %v", err)
		}
		if st.Status == "evicted" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never evicted the idle session")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if d.evictsTotal.Load() == 0 {
		t.Fatal("evictions counter still zero")
	}
	// Revival on touch.
	rc, err := c.Checkpoint(ctx, info.ID)
	if err != nil {
		t.Fatalf("Checkpoint after eviction: %v", err)
	}
	rc.Close()
	if d.revivals.Load() == 0 {
		t.Fatal("revivals counter still zero")
	}
}

func TestDaemonRunCancel(t *testing.T) {
	_, c := newTestDaemon(t, Config{SliceRounds: 1})
	ctx := context.Background()
	req := testWire(9)
	req.MaxRounds = 1 << 20
	info, err := c.Create(ctx, req)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Cancel a run mid-flight from a second goroutine.
	go func() {
		time.Sleep(20 * time.Millisecond)
		_ = c.Cancel(context.Background(), info.ID)
	}()
	rr, err := c.Run(ctx, info.ID, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rr.Canceled && !rr.Session.Done {
		t.Fatalf("run neither canceled nor done: %+v", rr)
	}
	// The session stays fully usable after a cancel.
	if _, err := c.Run(ctx, info.ID, 1); err != nil {
		t.Fatalf("Run after cancel: %v", err)
	}
}

// readAllWithin reads rc to EOF in the background and returns what it
// read, failing the test if the stream has not ended within d.
func readAllWithin(t *testing.T, rc io.ReadCloser, d time.Duration) []byte {
	t.Helper()
	type result struct {
		b   []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		b, err := io.ReadAll(rc)
		done <- result{b, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("follow stream: %v", r.err)
		}
		return r.b
	case <-time.After(d):
		rc.Close()
		t.Fatalf("follow stream did not end within %v", d)
		return nil
	}
}

func TestDaemonFollowEvents(t *testing.T) {
	_, c := newTestDaemon(t, Config{SliceRounds: 8})
	ctx := context.Background()
	req := testWire(13)
	req.RecordEvents = true
	info, err := c.Create(ctx, req)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Attach the follower before any stepping: it must see the whole
	// stream as it is recorded, ending with session_end.
	rc, err := c.Events(ctx, info.ID, client.EventOptions{Follow: true})
	if err != nil {
		t.Fatalf("Events follow: %v", err)
	}
	defer rc.Close()
	type result struct {
		b   []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		b, err := io.ReadAll(rc)
		done <- result{b, err}
	}()
	if _, err := c.Run(ctx, info.ID, 0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var streamed []byte
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("follow stream: %v", r.err)
		}
		streamed = r.b
	case <-time.After(5 * time.Second):
		t.Fatal("follow stream did not terminate at session end")
	}
	local, _ := localEventStream(t, localConfig(13))
	if !bytes.Equal(streamed, local) {
		t.Fatalf("followed stream (%d bytes) differs from local (%d bytes)", len(streamed), len(local))
	}

	// A session that does not record has nothing to follow or replay:
	// both get the same named error.
	plain, err := c.Create(ctx, testWire(14))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for _, follow := range []bool{true, false} {
		_, err := c.Events(ctx, plain.ID, client.EventOptions{Follow: follow})
		apiErr := new(client.APIError)
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest ||
			!strings.Contains(apiErr.Message, errNotRecorded.Error()) {
			t.Fatalf("Events(follow=%v) on an unrecorded session: %v, want a 400 naming %q", follow, err, errNotRecorded)
		}
	}
}

// TestDaemonFollowSlowReaderConcurrent: a follower that reads nothing
// while a long session runs to its end still gets every recorded line,
// and its stream ends by itself — the follower tails the record instead
// of a bounded queue that would overflow.
func TestDaemonFollowSlowReaderConcurrent(t *testing.T) {
	d, err := New(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewUnstartedServer(d.Handler())
	srv.Listener = smallBufferListener{srv.Listener}
	srv.Start()
	t.Cleanup(func() {
		srv.Close()
		d.Close()
	})
	c := client.New(srv.URL)
	ctx := context.Background()
	info, err := c.Create(ctx, client.CreateRequest{
		Algorithm:    "crowdedbin",
		N:            64,
		K:            16,
		Topology:     client.TopologySpec{Kind: "regular", Degree: 4},
		Seed:         5246370202833938734,
		MaxRounds:    20000,
		RecordEvents: true,
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// The follower's socket takes a few kilobytes, not the megabytes a
	// loopback connection could otherwise buffer for a reader that is
	// not reading.
	var followConn *net.TCPConn
	slow := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if err == nil {
				followConn = conn.(*net.TCPConn)
				err = followConn.SetReadBuffer(socketBuffer)
			}
			return conn, err
		},
	}}
	freq, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/sessions/"+info.ID+"/events?follow=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := slow.Do(freq)
	if err != nil {
		t.Fatalf("Events follow: %v", err)
	}
	defer resp.Body.Close()
	rr, err := c.Run(ctx, info.ID, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rr.Solved || rr.Rounds != 20000 {
		t.Fatalf("session solved=%v after %d rounds, want the stalled 20000-round run", rr.Solved, rr.Rounds)
	}
	// Now read, through a buffer wide enough that reading is fast.
	if err := followConn.SetReadBuffer(4 << 20); err != nil {
		t.Fatal(err)
	}
	followed := readAllWithin(t, resp.Body, 30*time.Second)
	rc, err := c.Events(ctx, info.ID, client.EventOptions{})
	if err != nil {
		t.Fatalf("Events replay: %v", err)
	}
	replay, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatalf("reading replay: %v", err)
	}
	if !bytes.Equal(followed, replay) {
		t.Fatalf("slow follower got %d lines (%d bytes), replay has %d lines (%d bytes)",
			bytes.Count(followed, []byte("\n")), len(followed), bytes.Count(replay, []byte("\n")), len(replay))
	}
}

// TestDaemonFollowAcrossEviction: a follower neither pins nor revives
// its session. The cap evicts the followed session for a decoy, a run
// revives it, and the follower still sees the local stream byte for
// byte.
func TestDaemonFollowAcrossEviction(t *testing.T) {
	_, c := newTestDaemon(t, Config{MaxLive: 1, SliceRounds: 4})
	ctx := context.Background()
	req := testWire(17)
	req.RecordEvents = true
	info, err := c.Create(ctx, req)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	rc, err := c.Events(ctx, info.ID, client.EventOptions{Follow: true})
	if err != nil {
		t.Fatalf("Events follow: %v", err)
	}
	defer rc.Close()
	if _, err := c.Run(ctx, info.ID, 5); err != nil {
		t.Fatalf("Run(5): %v", err)
	}
	if _, err := c.Create(ctx, testWire(18)); err != nil {
		t.Fatalf("Create decoy: %v", err)
	}
	if st, err := c.State(ctx, info.ID); err != nil || st.Status != "evicted" {
		t.Fatalf("followed session after the decoy: %+v, %v; want evicted", st, err)
	}
	rr, err := c.Run(ctx, info.ID, 0)
	if err != nil {
		t.Fatalf("Run(0): %v", err)
	}
	if rr.Session.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", rr.Session.Evictions)
	}
	local, _ := localEventStream(t, localConfig(17))
	if followed := readAllWithin(t, rc, 5*time.Second); !bytes.Equal(followed, local) {
		t.Fatalf("followed stream across evict/revive (%d bytes) differs from local (%d bytes)", len(followed), len(local))
	}
}

// TestDaemonFollowEndsOnDelete: deleting a followed session ends the
// stream after the lines recorded so far.
func TestDaemonFollowEndsOnDelete(t *testing.T) {
	_, c := newTestDaemon(t, Config{})
	ctx := context.Background()
	req := testWire(19)
	req.RecordEvents = true
	info, err := c.Create(ctx, req)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := c.Run(ctx, info.ID, 3); err != nil {
		t.Fatalf("Run(3): %v", err)
	}
	rc, err := c.Events(ctx, info.ID, client.EventOptions{Follow: true})
	if err != nil {
		t.Fatalf("Events follow: %v", err)
	}
	defer rc.Close()
	if err := c.Delete(ctx, info.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	followed := readAllWithin(t, rc, 5*time.Second)
	local, _ := localEventStream(t, localConfig(19))
	if len(followed) == 0 || !bytes.HasPrefix(local, followed) || bytes.Contains(followed, []byte(`"session_end"`)) {
		t.Fatalf("stream ended on delete with %d bytes, want a non-empty prefix of the local stream before session_end", len(followed))
	}
}

func TestDaemonHTTPErrors(t *testing.T) {
	d, c := newTestDaemon(t, Config{})
	ctx := context.Background()

	cases := []struct {
		name   string
		call   func() error
		status int
	}{
		{"unknown algorithm", func() error {
			req := testWire(1)
			req.Algorithm = "quantum"
			_, err := c.Create(ctx, req)
			return err
		}, http.StatusBadRequest},
		{"invalid config", func() error {
			req := testWire(1)
			req.N = 1
			_, err := c.Create(ctx, req)
			return err
		}, http.StatusBadRequest},
		{"missing session", func() error {
			_, err := c.Run(ctx, "s999999", 1)
			return err
		}, http.StatusNotFound},
		{"bad checkpoint upload", func() error {
			_, err := c.Resume(ctx, strings.NewReader("not a checkpoint"), false)
			return err
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		err := tc.call()
		apiErr := new(client.APIError)
		if !errors.As(err, &apiErr) {
			t.Fatalf("%s: error %v is not an APIError", tc.name, err)
		}
		if apiErr.Status != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, apiErr.Status, tc.status, apiErr.Message)
		}
	}

	// Unknown JSON fields and trailing garbage are rejected with a 400
	// that names the problem — including "concurrent" and
	// "engine_workers", the wire names of removed engine options, and the
	// topology's removed "relabel", which are unknown fields like any
	// other.
	for _, tc := range []struct{ body, want string }{
		{`{"algorithm":"sharedbit","n":64,"k":8,"topology":{"kind":"regular"},"fitler":"x"}`, `unknown field "fitler"`},
		{`{"algorithm":"sharedbit","n":64,"k":8,"topology":{"kind":"regular"}} extra`, `trailing data`},
		{`{"algorithm":"sharedbit","n":64,"k":8,"topology":{"kind":"regular"}}}`, `trailing data`},
		{`{"algorithm":"sharedbit","n":64,"k":8,"topology":{"kind":"regular"},"concurrent":true}`, `unknown field "concurrent"`},
		{`{"algorithm":"sharedbit","n":64,"k":8,"topology":{"kind":"regular"},"engine_workers":2}`, `unknown field "engine_workers"`},
		{`{"algorithm":"sharedbit","n":64,"k":8,"topology":{"kind":"regular","relabel":"bfs"}}`, `unknown field "relabel"`},
	} {
		if _, err := decodeCreateRequest([]byte(tc.body)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("decodeCreateRequest(%q) = %v, want an error naming %s", tc.body, err, tc.want)
		}
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(tc.body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("POST /v1/sessions %q: status %d, want 400", tc.body, rec.Code)
		}
	}
}

func TestParseEventsQuery(t *testing.T) {
	f, follow, err := parseEventsQuery("filter=round_completed,session_end&minround=2&maxround=9&follow=1")
	if err != nil {
		t.Fatalf("parseEventsQuery: %v", err)
	}
	if len(f.Types) != 2 || f.MinRound != 2 || f.MaxRound != 9 || !follow {
		t.Fatalf("parsed %+v follow=%v", f, follow)
	}
	if _, _, err := parseEventsQuery(""); err != nil {
		t.Fatalf("empty query: %v", err)
	}
	for _, bad := range []string{
		"filter=nonsense_type",
		"minround=-1",
		"minround=abc",
		"minround=9&maxround=2",
		"follow=maybe",
		"fitler=round_completed",
		"%zz",
	} {
		if _, _, err := parseEventsQuery(bad); err == nil {
			t.Fatalf("parseEventsQuery accepted %q", bad)
		}
	}
}

// TestRunAndRebindBodies: the run and rebind bodies are decoded as strictly
// as a create body — one JSON object of known fields and nothing after it,
// within the body cap — so a second object, a stray brace or trailing
// garbage is a 400 that moves nothing, never a request read up to its first
// object. An empty run body is the zero request: run to completion.
func TestRunAndRebindBodies(t *testing.T) {
	d, c := newTestDaemon(t, Config{})
	info, err := c.Create(context.Background(), testWire(3))
	if err != nil {
		t.Fatal(err)
	}
	h := d.Handler()
	post := func(path, body string) (int, client.SessionInfo) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/"+info.ID+path, strings.NewReader(body)))
		var res client.RunResult
		if rec.Code == http.StatusOK && path == "/run" {
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
		}
		return rec.Code, res.Session
	}
	regular := `{"topology":{"kind":"regular","degree":4},"tau":2}`
	round := 0
	for _, tc := range []struct {
		path, body string
		status     int
		advance    int // rounds an accepted run body moves the session
	}{
		{"/run", `{"rounds":1}`, http.StatusOK, 1},
		{"/run", ` {"rounds":2} ` + "\n", http.StatusOK, 2},
		{"/run", `{"rounds":1} {"rounds":2}`, http.StatusBadRequest, 0},
		{"/run", `{"rounds":1}x`, http.StatusBadRequest, 0},
		{"/run", `{"rounds":1}}`, http.StatusBadRequest, 0},
		{"/run", `{"rounds":1}]`, http.StatusBadRequest, 0},
		{"/run", `{"round":1}`, http.StatusBadRequest, 0},
		{"/run", `{"rounds":"1"}`, http.StatusBadRequest, 0},
		{"/run", `{"rounds":1}` + strings.Repeat(" ", maxRunBody), http.StatusBadRequest, 0},
		{"/rebind", regular, http.StatusOK, 0},
		{"/rebind", regular + `{}`, http.StatusBadRequest, 0},
		{"/rebind", regular + `x`, http.StatusBadRequest, 0},
		{"/rebind", regular + `}`, http.StatusBadRequest, 0},
		{"/rebind", `{"topology":{"kind":"regular"},"tua":2}`, http.StatusBadRequest, 0},
		{"/rebind", ``, http.StatusBadRequest, 0},
		{"/rebind", regular + strings.Repeat(" ", maxRebindBody), http.StatusBadRequest, 0},
	} {
		status, sess := post(tc.path, tc.body)
		if status != tc.status {
			t.Fatalf("POST %s %.40q: status %d, want %d", tc.path, tc.body, status, tc.status)
		}
		round += tc.advance
		if tc.advance > 0 && sess.Round != round {
			t.Fatalf("POST %s %.40q: session at round %d, want %d", tc.path, tc.body, sess.Round, round)
		}
		if st, err := d.State(info.ID); err != nil || st.Round != round {
			t.Fatalf("after POST %s %.40q: session at round %d (%v), want %d", tc.path, tc.body, st.Round, err, round)
		}
	}
	for _, body := range []string{"", " \n\t"} {
		if status, sess := post("/run", body); status != http.StatusOK || !sess.Done {
			t.Fatalf("run body %q: status %d, done %v; want 200 and a finished session", body, status, sess.Done)
		}
	}
}

// TestResumeQuery: the resume endpoint reads record_events in the
// vocabulary follow uses and refuses anything else, so a misspelt flag
// is a 400, never a session that silently records nothing.
func TestResumeQuery(t *testing.T) {
	d, _ := newTestDaemon(t, Config{})
	sim, err := mobilegossip.New(localConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := sim.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	h := d.Handler()
	for _, tc := range []struct {
		query   string
		status  int
		records bool
	}{
		{"", http.StatusCreated, false},
		{"record_events=1", http.StatusCreated, true},
		{"record_events=true", http.StatusCreated, true},
		{"record_events=0", http.StatusCreated, false},
		{"record_events=false", http.StatusCreated, false},
		{"record_events=", http.StatusCreated, false},
		{"recordevents=1", http.StatusBadRequest, false},
		{"record_events=yes", http.StatusBadRequest, false},
		{"record_events=1&follow=1", http.StatusBadRequest, false},
		{"%zz", http.StatusBadRequest, false},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/resume?"+tc.query, bytes.NewReader(ckpt.Bytes())))
		if rec.Code != tc.status {
			t.Fatalf("resume ?%s: status %d, want %d (%s)", tc.query, rec.Code, tc.status, rec.Body)
		}
		if rec.Code != http.StatusCreated {
			continue
		}
		var info client.SessionInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+info.ID+"/events", nil))
		if records := rec.Code == http.StatusOK; records != tc.records {
			t.Fatalf("resume ?%s: session records events = %v, want %v (events status %d)", tc.query, records, tc.records, rec.Code)
		}
	}
}

func TestDaemonMetricsExposition(t *testing.T) {
	d, c := newTestDaemon(t, Config{MaxLive: 1})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		info, err := c.Create(ctx, testWire(uint64(i)))
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		if _, err := c.Run(ctx, info.ID, 2); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, want := range []string{
		"gossipd_sessions 3",
		"gossipd_sessions_created_total 3",
		"gossipd_evictions_total",
		"gossipd_workers",
		"mobilegossip_rounds_total", // the aggregated per-session collector
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}
	if d.evictsTotal.Load() == 0 {
		t.Fatal("cap never evicted")
	}
}

func TestDaemonCloseFailsPendingJobs(t *testing.T) {
	d, c := newTestDaemon(t, Config{})
	ctx := context.Background()
	info, err := c.Create(ctx, testWire(7))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	d.Close()
	if _, err := d.Run(ctx, info.ID, 1); !errors.Is(err, errShuttingDown) {
		t.Fatalf("Run after Close: %v", err)
	}
}

func TestCheckpointFileAtomic(t *testing.T) {
	sim, err := mobilegossip.New(localConfig(17))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "s.ckpt")
	if err := sim.CheckpointFile(path); err != nil {
		t.Fatalf("CheckpointFile: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	revived, err := mobilegossip.ResumeFile(path)
	if err != nil {
		t.Fatalf("ResumeFile: %v", err)
	}
	if revived.Round() != sim.Round() {
		t.Fatalf("revived at round %d, want %d", revived.Round(), sim.Round())
	}
	if _, err := mobilegossip.ResumeFile(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("ResumeFile on a missing path succeeded")
	}
}

// socketBuffer caps both kernel buffers of the slow follower's
// connection, so that a reader that is not reading is not hidden behind
// the megabytes a loopback connection could otherwise buffer.
const socketBuffer = 16 << 10

// smallBufferListener caps the send buffer of every accepted connection.
type smallBufferListener struct{ net.Listener }

func (l smallBufferListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		err = conn.(*net.TCPConn).SetWriteBuffer(socketBuffer)
	}
	return conn, err
}

// TestDaemonResumeRefusesOversizedMapCount: an uploaded checkpoint whose
// CrowdedBin tag map claims 2²² entries it does not hold (the fixture the
// root package's TestResumeRejectsOversizedMapCount forges) is refused as a
// bad request, and the daemon goes on answering.
func TestDaemonResumeRefusesOversizedMapCount(t *testing.T) {
	data, err := os.ReadFile("../../testdata/ckpt_v3_oversized_count.bin")
	if err != nil {
		t.Fatal(err)
	}
	_, c := newTestDaemon(t, Config{})
	ctx := context.Background()
	_, err = c.Resume(ctx, bytes.NewReader(data), false)
	if apiErr := new(client.APIError); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("Resume of the oversized-count upload: err = %v, want a 400", err)
	}
	if _, err := c.Version(ctx); err != nil {
		t.Fatalf("/v1/version after the refused upload: %v", err)
	}
}
