package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"mobilegossip/internal/core"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
)

// runTraced executes a SharedBit gossip over n nodes with tracing, at the
// given engine worker count, and returns the engine result plus parsed
// events.
func runTraced(t *testing.T, n, workers int) (mtm.Result, []Event, *Recorder) {
	t.Helper()
	const k = 4
	st, err := core.NewState(n, core.OneTokenPerNode(n, k), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	proto := core.NewSharedBit(st, prand.NewSharedString(5))
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	g := graph.RandomRegular(n, 4, prand.New(3))
	res, err := mtm.NewEngine(dyngraph.NewStatic(g), Wrap(proto, rec), mtm.Config{
		Seed: 8, Workers: workers,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}

	var events []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return res, events, rec
}

func TestRecorderCountsMatchEngineTotals(t *testing.T) {
	res, events, rec := runTraced(t, 16, 1)
	if !res.Completed {
		t.Fatal("gossip unsolved")
	}
	var proposals, connects int64
	for _, e := range events {
		switch e.Kind {
		case "propose":
			proposals++
		case "connect":
			connects++
		default:
			t.Errorf("unknown event kind %q", e.Kind)
		}
	}
	if proposals != res.Proposals {
		t.Errorf("traced %d proposals, engine counted %d", proposals, res.Proposals)
	}
	if connects != res.Connections {
		t.Errorf("traced %d connections, engine counted %d", connects, res.Connections)
	}
	if rec.Events() != int64(len(events)) {
		t.Errorf("Events() = %d, parsed %d", rec.Events(), len(events))
	}
	if rec.Err() != nil {
		t.Errorf("unexpected recorder error: %v", rec.Err())
	}
}

func TestEventsWellFormed(t *testing.T) {
	res, events, _ := runTraced(t, 16, 1)
	for _, e := range events {
		if e.Round < 1 || e.Round > res.Rounds {
			t.Errorf("event round %d outside [1, %d]", e.Round, res.Rounds)
		}
		if e.Node == e.Peer {
			t.Errorf("self-event: %+v", e)
		}
		if e.Kind == "connect" {
			if e.Bits <= 0 {
				t.Errorf("connect with no metered bits: %+v", e)
			}
		}
	}
}

func TestWrappedExecutionIdenticalToBare(t *testing.T) {
	run := func(wrap bool) mtm.Result {
		const n, k = 16, 4
		st, err := core.NewState(n, core.OneTokenPerNode(n, k), 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		var proto mtm.Protocol = core.NewSharedBit(st, prand.NewSharedString(5))
		if wrap {
			proto = Wrap(proto, NewRecorder(&bytes.Buffer{}))
		}
		g := graph.RandomRegular(n, 4, prand.New(3))
		res, err := mtm.NewEngine(dyngraph.NewStatic(g), proto, mtm.Config{Seed: 8}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if bare, wrapped := run(false), run(true); bare != wrapped {
		t.Errorf("tracing changed the execution:\n  bare:    %+v\n  wrapped: %+v", bare, wrapped)
	}
}

// TestConcurrentBackendSafeAndEquivalent runs the recorder under a sharded
// engine: Decide and Exchange record from several goroutines at once, so
// the recorder's mutex is what keeps the stream well-formed (run under
// -race by make race-concurrent). n is large enough that rounds accept at
// least 64 connections, the engine's cut-over to a chunked exchange phase.
func TestConcurrentBackendSafeAndEquivalent(t *testing.T) {
	seqRes, seqEvents, _ := runTraced(t, 400, 1)
	parRes, parEvents, _ := runTraced(t, 400, 4)
	if seqRes != parRes {
		t.Errorf("worker counts diverged under tracing: %+v vs %+v", seqRes, parRes)
	}
	if len(seqEvents) != len(parEvents) {
		t.Errorf("event counts differ: %d vs %d", len(seqEvents), len(parEvents))
	}
	perRound := map[int]int{}
	widest := 0
	for _, e := range parEvents {
		if e.Kind == "connect" {
			perRound[e.Round]++
			widest = max(widest, perRound[e.Round])
		}
	}
	if widest < 64 {
		t.Errorf("widest round accepted %d connections; the sharded exchange needs ≥ 64 to run in parallel", widest)
	}
}

// failingWriter fails every write after the first.
type failingWriter struct{ writes int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > 1 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestRecorderSurfacesWriteErrors(t *testing.T) {
	const n, k = 12, 3
	st, err := core.NewState(n, core.OneTokenPerNode(n, k), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	proto := core.NewSharedBit(st, prand.NewSharedString(5))
	rec := NewRecorder(&failingWriter{})
	g := graph.RandomRegular(n, 4, prand.New(3))
	if _, err := mtm.NewEngine(dyngraph.NewStatic(g), Wrap(proto, rec), mtm.Config{Seed: 8}).Run(); err != nil {
		t.Fatal(err)
	}
	if rec.Err() == nil {
		t.Fatal("expected a recorder write error")
	}
	if !strings.Contains(rec.Err().Error(), "disk full") {
		t.Errorf("error should wrap the writer failure, got %v", rec.Err())
	}
}
