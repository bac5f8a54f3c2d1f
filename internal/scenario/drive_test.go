package scenario_test

// The walker's boundary rule, pinned once against a fake session: since
// both transports sit behind the same Session seam, the sequence asserted
// here is the sequence local and remote runs both execute.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mobilegossip"
	"mobilegossip/client"
	"mobilegossip/internal/scenario"
)

// fakeSession records the calls the walker makes. The run it simulates
// finishes at round finishAt; ckptFail makes Checkpoint die mid-stream and
// eventsErr is what the events finish reports.
type fakeSession struct {
	round, finishAt int
	calls           []string
	ckptFail        bool
	eventsErr       error
}

func (f *fakeSession) Info() client.SessionInfo {
	return client.SessionInfo{Round: f.round, Potential: 1000 - f.round, Done: f.round >= f.finishAt}
}

func (f *fakeSession) RunTo(_ context.Context, round int) (client.RunResult, error) {
	f.calls = append(f.calls, fmt.Sprintf("runTo %d", round))
	if round <= 0 || round > f.finishAt {
		round = f.finishAt
	}
	f.round = max(f.round, round)
	return client.RunResult{Session: f.Info(), Rounds: f.round}, nil
}

func (f *fakeSession) Rebind(_ context.Context, req client.RebindRequest) (string, error) {
	f.calls = append(f.calls, fmt.Sprintf("rebind %s τ=%d @%d", req.Topology.Kind, req.Tau, f.round))
	return req.Topology.Kind, nil
}

func (f *fakeSession) Checkpoint(_ context.Context, w io.Writer) (int, int, error) {
	f.calls = append(f.calls, fmt.Sprintf("checkpoint @%d", f.round))
	fmt.Fprintf(w, "snapshot of round %d", f.round)
	if f.ckptFail {
		return 0, 0, errors.New("connection reset mid-stream")
	}
	return f.round, 1000 - f.round, nil
}

func (f *fakeSession) Events(io.Writer) func(context.Context) error {
	return func(context.Context) error { return f.eventsErr }
}

func (f *fakeSession) Close() {}

// threePhases is warmup(10) → shaken(10, tau 1) → drain(topology cycle):
// each later phase's effective rebind carries what it inherits.
func threePhases(drainRounds int) scenario.Timeline {
	tl := scenario.Timeline{
		Scenario: "t",
		Phases: []scenario.PhaseStart{
			{Name: "shaken", Round: 10, Rebind: client.RebindRequest{Topology: client.TopologySpec{Kind: "complete"}, Tau: 1}},
			{Name: "drain", Round: 20, Rebind: client.RebindRequest{Topology: client.TopologySpec{Kind: "cycle"}, Tau: 1}},
		},
	}
	if drainRounds > 0 {
		tl.End = 20 + drainRounds
	}
	return tl
}

func TestDriveBoundarySequence(t *testing.T) {
	const rebindB, rebindC = "rebind complete τ=1 @10", "rebind cycle τ=1 @20"
	for _, tc := range []struct {
		name     string
		tl       scenario.Timeline
		start    int  // the session's round at open (> 0: resumed)
		finishAt int  // the round the run completes at
		ckpt     bool // -checkpoint given
		ckptAt   int
		want     []string
	}{
		{name: "unphased", finishAt: 50,
			want: []string{"runTo 0"}},
		{name: "unphased, snapshot at the end", finishAt: 50, ckpt: true,
			want: []string{"runTo 0", "checkpoint @50"}},
		{name: "unphased, snapshot mid-run", finishAt: 50, ckpt: true, ckptAt: 7,
			want: []string{"runTo 7", "checkpoint @7", "runTo 0"}},
		{name: "unphased, snapshot never reached", finishAt: 50, ckpt: true, ckptAt: 1000,
			want: []string{"runTo 1000", "runTo 0", "checkpoint @50"}},
		{name: "phased", tl: threePhases(0), finishAt: 50,
			want: []string{"runTo 10", rebindB, "runTo 20", rebindC, "runTo 0"}},
		{name: "phased, fixed length", tl: threePhases(10), finishAt: 30,
			want: []string{"runTo 10", rebindB, "runTo 20", rebindC, "runTo 30"}},
		{name: "snapshot strictly inside a phase", tl: threePhases(0), finishAt: 50, ckpt: true, ckptAt: 15,
			want: []string{"runTo 10", rebindB, "runTo 15", "checkpoint @15", "runTo 20", rebindC, "runTo 0"}},
		{name: "snapshot on a phase start precedes its rebind", tl: threePhases(0), finishAt: 50, ckpt: true, ckptAt: 20,
			want: []string{"runTo 10", rebindB, "runTo 20", "checkpoint @20", rebindC, "runTo 0"}},
		{name: "phased, snapshot never reached", tl: threePhases(0), finishAt: 50, ckpt: true, ckptAt: 1000,
			want: []string{"runTo 10", rebindB, "runTo 20", rebindC, "runTo 1000", "runTo 0", "checkpoint @50"}},
		{name: "resumed on a boundary re-applies its rebind", tl: threePhases(0), start: 20, finishAt: 50,
			want: []string{"runTo 20", rebindC, "runTo 0"}},
		{name: "resumed past a boundary and past the snapshot", tl: threePhases(0), start: 25, finishAt: 50, ckpt: true, ckptAt: 15,
			want: []string{"runTo 0", "checkpoint @50"}},
		{name: "run finishing before a later phase issues no rebind", tl: threePhases(0), finishAt: 15,
			want: []string{"runTo 10", rebindB, "runTo 20", "runTo 0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &fakeSession{round: tc.start, finishAt: tc.finishAt}
			var log bytes.Buffer
			opts := scenario.Options{CheckpointAt: tc.ckptAt, Log: &log}
			if tc.ckpt {
				opts.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
			}
			res, err := scenario.Drive(context.Background(), s, tc.tl, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(s.calls, tc.want) {
				t.Errorf("calls:\n got %q\nwant %q", s.calls, tc.want)
			}
			if res.Rounds != tc.finishAt {
				t.Errorf("result is of round %d, want the final round %d", res.Rounds, tc.finishAt)
			}
			if !tc.ckpt {
				return
			}
			// The file holds the one snapshot taken, and the notice names
			// the round it was actually taken at.
			at := tc.ckptAt
			if at == 0 || at > tc.finishAt || at <= tc.start {
				at = tc.finishAt
			}
			got, err := os.ReadFile(opts.CheckpointPath)
			if want := fmt.Sprintf("snapshot of round %d", at); err != nil || string(got) != want {
				t.Errorf("checkpoint file = %q, %v; want %q", got, err, want)
			}
			if want := fmt.Sprintf("run.ckpt at round %d (φ=%d)\n", at, 1000-at); !strings.Contains(log.String(), want) {
				t.Errorf("log %q lacks the notice %q", log.String(), want)
			}
		})
	}
}

// TestDriveCheckpointIsAtomic: a snapshot stream that dies midway (a
// dropped HTTP body, a full disk) must leave the previous checkpoint
// intact and no temporary behind.
func TestDriveCheckpointIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := os.WriteFile(path, []byte("the previous good checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := &fakeSession{finishAt: 50, ckptFail: true}
	_, err := scenario.Drive(context.Background(), s, scenario.Timeline{},
		scenario.Options{CheckpointPath: path, CheckpointAt: 7})
	if err == nil || !strings.Contains(err.Error(), "mid-stream") {
		t.Fatalf("Drive = %v, want the checkpoint stream's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "the previous good checkpoint" {
		t.Errorf("destination now holds %q", got)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 1 {
		t.Errorf("directory holds %v, want only the destination", left)
	}
}

// TestDriveSurfacesEventStreamFailure: whatever the session's event
// stream reports when it finishes fails the run.
func TestDriveSurfacesEventStreamFailure(t *testing.T) {
	s := &fakeSession{finishAt: 5, eventsErr: errors.New("events: disk full")}
	_, err := scenario.Drive(context.Background(), s, scenario.Timeline{},
		scenario.Options{EventsPath: filepath.Join(t.TempDir(), "e.jsonl")})
	if !errors.Is(err, s.eventsErr) {
		t.Fatalf("Drive = %v, want the event stream's error", err)
	}
}

// gatedWriter blocks every write until the gate opens, then counts the
// lines it is handed; after fail is set every write fails.
type gatedWriter struct {
	gate  chan struct{}
	lines *int
	fail  bool
}

func (w gatedWriter) Write(p []byte) (int, error) {
	<-w.gate
	if w.fail {
		return 0, errors.New("disk full")
	}
	*w.lines += bytes.Count(p, []byte("\n"))
	return len(p), nil
}

// TestLocalEventsDropIsAnError: the local JSONL sink is lossless like the
// daemon's recorder — a stuck writer stalls the publisher instead of
// losing events — so the only events it can drop are those a failed
// write loses, and those must fail the run loudly instead of passing for
// the remote stream.
func TestLocalEventsDropIsAnError(t *testing.T) {
	newSim := func() *mobilegossip.Simulation {
		sim, err := mobilegossip.New(mobilegossip.Config{
			Algorithm: mobilegossip.AlgSharedBit, N: 8, K: 2,
			Topology: mobilegossip.Topology{Kind: mobilegossip.Complete},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	const flood = 1 << 17
	sim := newSim()
	var lines int
	w := gatedWriter{gate: make(chan struct{}), lines: &lines}
	finish := (&scenario.Local{Sim: sim}).Events(w)
	time.AfterFunc(20*time.Millisecond, func() { close(w.gate) })
	for i := 1; i <= flood; i++ {
		sim.Bus().Publish(mobilegossip.Event{Type: mobilegossip.EventRoundCompleted, Round: i})
	}
	if err := finish(context.Background()); err != nil || lines != flood {
		t.Fatalf("stuck writer: finish = %v with %d of %d lines, want nil and all of them", err, lines, flood)
	}

	sim = newSim()
	w = gatedWriter{gate: make(chan struct{}), fail: true}
	close(w.gate)
	finish = (&scenario.Local{Sim: sim}).Events(w)
	sim.Bus().Publish(mobilegossip.Event{Type: mobilegossip.EventRoundCompleted, Round: 1})
	if err := finish(context.Background()); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("failing writer: finish = %v, want the write error", err)
	}
}
