package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"mobilegossip/internal/core"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
)

// runTraced executes a SharedBit gossip over n nodes with tracing and
// returns the engine result plus parsed events.
func runTraced(t *testing.T, n int) (mtm.Result, []Event, *Recorder) {
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
	res, err := mtm.NewEngine(dyngraph.NewStatic(g), Wrap(proto, rec), mtm.Config{Seed: 8}).Run()
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
	res, events, rec := runTraced(t, 16)
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
	res, events, _ := runTraced(t, 16)
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

// TestConcurrentBackendSafeAndEquivalent replays a run's events into a
// recorder from several goroutines at once: the recorder's mutex must keep
// every line whole, and the stream must hold the same lines as the
// sequential one (run under -race by make race-concurrent).
func TestConcurrentBackendSafeAndEquivalent(t *testing.T) {
	_, events, _ := runTraced(t, 400)
	var seq, par bytes.Buffer
	seqRec := NewRecorder(&seq)
	for _, e := range events {
		seqRec.record(e)
	}
	rec := NewRecorder(&par)
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(part []Event) {
			defer wg.Done()
			for _, e := range part {
				rec.record(e)
			}
		}(events[w*len(events)/writers : (w+1)*len(events)/writers])
	}
	wg.Wait()
	lines := func(b *bytes.Buffer) []string {
		ls := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
		sort.Strings(ls)
		return ls
	}
	if got, want := lines(&par), lines(&seq); !slices.Equal(got, want) {
		t.Fatalf("concurrent stream holds %d lines, sequential %d, and they differ", len(got), len(want))
	}
	if rec.Events() != int64(len(events)) {
		t.Fatalf("Events() = %d, want %d", rec.Events(), len(events))
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
