package mobilegossip_test

// Integration tests for the session event bus: the events a real run
// publishes, their causal order, and their agreement with Result
// (DESIGN.md §12).

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"mobilegossip"
)

// roundsOnly selects the round_completed events: one per round, carrying
// its meters and φ.
var roundsOnly = mobilegossip.EventFilter{Types: []mobilegossip.EventType{mobilegossip.EventRoundCompleted}}

func collectRun(t *testing.T, cfg mobilegossip.Config) (*mobilegossip.EventRing, mobilegossip.Result) {
	t.Helper()
	sim, err := mobilegossip.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ring := mobilegossip.NewEventRing(1 << 16)
	ring.Attach(sim.Bus(), mobilegossip.EventFilter{})
	res, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ring, res
}

func TestSessionEventSequence(t *testing.T) {
	ring, res := collectRun(t, mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 64, K: 8,
		Topology: mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint},
		Tau:      1, Seed: 7,
	})
	evs := ring.Events(mobilegossip.EventFilter{})
	if len(evs) < 3 {
		t.Fatalf("only %d events for a full run", len(evs))
	}

	first := evs[0]
	if first.Type != mobilegossip.EventSessionStart {
		t.Fatalf("first event is %s, want session_start", first.Type)
	}
	if first.N != 64 || first.K != 8 || first.Algorithm != "sharedbit" {
		t.Fatalf("session_start identity = %+v", first)
	}
	checkMeters(t, evs, res)

	rounds := ring.Events(roundsOnly)
	if len(rounds) != res.Rounds {
		t.Fatalf("%d round_completed events, want one per round (%d)", len(rounds), res.Rounds)
	}
	for i, ev := range rounds {
		if ev.Round != i+1 {
			t.Fatalf("round event %d carries round %d", i, ev.Round)
		}
	}
	if !rounds[len(rounds)-1].Done {
		t.Fatal("final round_completed not marked done")
	}

	// Mobility churns the topology; churn events must precede their
	// round's completion and sum to the run totals.
	var added, removed int64
	seenRound := 0
	for _, ev := range evs {
		switch ev.Type {
		case mobilegossip.EventChurnApplied:
			if ev.Round != seenRound+1 {
				t.Fatalf("churn for round %d arrived after round_completed %d", ev.Round, seenRound)
			}
			added += int64(ev.EdgesAdded)
			removed += int64(ev.EdgesRemoved)
		case mobilegossip.EventRoundCompleted:
			seenRound = ev.Round
		}
	}
	if added != res.EdgesAdded || removed != res.EdgesRemoved {
		t.Fatalf("churn events total +%d/-%d, Result says +%d/-%d",
			added, removed, res.EdgesAdded, res.EdgesRemoved)
	}
	if added == 0 {
		t.Fatal("mobility run produced no churn events")
	}

	for _, cfg := range sessionMatrix() {
		cfg := cfg
		t.Run(cfgName(cfg), func(t *testing.T) {
			ring, res := collectRun(t, cfg)
			checkMeters(t, ring.Events(mobilegossip.EventFilter{}), res)
		})
	}
}

// checkMeters requires a run's event stream to account for its Result:
// session_end is the last event and carries the Result's totals, and the
// per-round meters of the round_completed events sum to them — every
// proposal, connection, control bit and token transfer the engine
// charged, each charged to exactly one round.
func checkMeters(t *testing.T, evs []mobilegossip.Event, res mobilegossip.Result) {
	t.Helper()
	last := evs[len(evs)-1]
	if last.Type != mobilegossip.EventSessionEnd {
		t.Fatalf("last event is %s, want session_end", last.Type)
	}
	if last.Solved != res.Solved || last.Round != res.Rounds ||
		last.Proposals != res.Proposals || last.Connections != res.Connections ||
		last.ControlBits != res.ControlBits || last.TokensMoved != res.TokensMoved {
		t.Fatalf("session_end %+v disagrees with Result %+v", last, res)
	}
	var sum mobilegossip.Event
	rounds := 0
	for _, ev := range evs {
		if ev.Type == mobilegossip.EventRoundCompleted {
			rounds++
			sum.Proposals += ev.Proposals
			sum.Connections += ev.Connections
			sum.ControlBits += ev.ControlBits
			sum.TokensMoved += ev.TokensMoved
		}
	}
	if rounds != res.Rounds || sum.Proposals != res.Proposals || sum.Connections != res.Connections ||
		sum.ControlBits != res.ControlBits || sum.TokensMoved != res.TokensMoved {
		t.Fatalf("%d round_completed events sum to %d proposals, %d connections, %d bits, %d tokens; Result %+v",
			rounds, sum.Proposals, sum.Connections, sum.ControlBits, sum.TokensMoved, res)
	}
}

// TestObserveMidRun: a subscriber attached mid-run sees the rounds from
// its attachment on and the session end, but no session start.
func TestObserveMidRun(t *testing.T) {
	sim, err := mobilegossip.New(mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 16, K: 4,
		Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4},
		Seed:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var evs []mobilegossip.Event
	sim.Bus().SubscribeSync(mobilegossip.EventFilter{}, func(ev mobilegossip.Event) { evs = append(evs, ev) })
	res, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != res.Rounds-3+1 {
		t.Fatalf("mid-run subscriber saw %d events, want %d rounds + session_end", len(evs), res.Rounds-3)
	}
	if evs[0].Type != mobilegossip.EventRoundCompleted || evs[0].Round != 4 {
		t.Fatalf("first event %s round %d, want round_completed 4", evs[0].Type, evs[0].Round)
	}
	if last := evs[len(evs)-1]; last.Type != mobilegossip.EventSessionEnd || last.Round != res.Rounds {
		t.Fatalf("last event %s round %d, want session_end %d", last.Type, last.Round, res.Rounds)
	}
}

func TestAdversaryEpochEvents(t *testing.T) {
	ring, _ := collectRun(t, mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 64, K: 4,
		Topology: mobilegossip.Topology{
			Kind: mobilegossip.RandomRegular, Degree: 4,
			Adversary: mobilegossip.AdvBipartition,
		},
		Tau:  1,
		Seed: 11,
	})
	epochs := ring.Events(mobilegossip.EventFilter{
		Types: []mobilegossip.EventType{mobilegossip.EventAdversaryEpoch},
	})
	if len(epochs) == 0 {
		t.Fatal("adversarial run published no adversary_epoch events")
	}
	for i := 1; i < len(epochs); i++ {
		if epochs[i].Epoch <= epochs[i-1].Epoch {
			t.Fatalf("epochs not strictly increasing: %d then %d",
				epochs[i-1].Epoch, epochs[i].Epoch)
		}
	}
}

func TestSessionCancelEvent(t *testing.T) {
	sim, err := mobilegossip.New(mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 64, K: 32,
		Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4},
		Tau:      1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := mobilegossip.NewEventRing(64)
	ring.Attach(sim.Bus(), mobilegossip.EventFilter{
		Types: []mobilegossip.EventType{mobilegossip.EventSessionCancel, mobilegossip.EventSessionEnd},
	})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.Run(ctx); err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	evs := ring.Events(mobilegossip.EventFilter{})
	if len(evs) != 1 || evs[0].Type != mobilegossip.EventSessionCancel {
		t.Fatalf("canceled run published %v, want exactly one session_cancel", evs)
	}

	// The session stays usable: finishing it publishes session_end.
	if _, err := sim.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ends := ring.Events(mobilegossip.EventFilter{
		Types: []mobilegossip.EventType{mobilegossip.EventSessionEnd},
	})
	if len(ends) != 1 {
		t.Fatalf("finished run published %d session_end events, want 1", len(ends))
	}
}

func TestCheckpointEvents(t *testing.T) {
	sim, err := mobilegossip.New(mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 64, K: 32,
		Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4},
		Tau:      1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := mobilegossip.NewEventRing(64)
	ring.Attach(sim.Bus(), mobilegossip.EventFilter{})
	for i := 0; i < 5; i++ {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var ckpt bytes.Buffer
	if err := sim.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	written := ring.Events(mobilegossip.EventFilter{
		Types: []mobilegossip.EventType{mobilegossip.EventCheckpointWritten},
	})
	if len(written) != 1 || written[0].Round != 5 {
		t.Fatalf("checkpoint_written events = %v, want one at round 5", written)
	}

	resumed, err := mobilegossip.Resume(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	ring2 := mobilegossip.NewEventRing(64)
	ring2.Attach(resumed.Bus(), mobilegossip.EventFilter{})
	if _, err := resumed.Step(); err != nil {
		t.Fatal(err)
	}
	evs := ring2.Events(mobilegossip.EventFilter{})
	if len(evs) < 3 ||
		evs[0].Type != mobilegossip.EventSessionStart ||
		evs[1].Type != mobilegossip.EventCheckpointResumed ||
		evs[2].Type != mobilegossip.EventRoundCompleted {
		t.Fatalf("resumed session opened with %v, want start, resumed, round", evs)
	}
	if evs[1].Round != 5 || evs[2].Round != 6 {
		t.Fatalf("resume events at rounds %d/%d, want 5/6", evs[1].Round, evs[2].Round)
	}
}

// TestJSONLSinkOnSession checks the end-to-end path gossipsim -events
// uses: every published event lands in the file as valid JSON with the
// schema version and a parseable type.
func TestJSONLSinkOnSession(t *testing.T) {
	sim, err := mobilegossip.New(mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 32, K: 4,
		Topology: mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint},
		Tau:      1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sink := mobilegossip.NewJSONLSink(sim.Bus(), &out, mobilegossip.EventFilter{}, 0)
	res, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Dropped() != 0 {
		t.Fatalf("sink dropped %d events", sink.Dropped())
	}

	lines := bytes.Split(bytes.TrimRight(out.Bytes(), "\n"), []byte("\n"))
	if int64(len(lines)) != sink.Written() {
		t.Fatalf("%d lines vs Written=%d", len(lines), sink.Written())
	}
	var roundLines int
	for i, line := range lines {
		var obj struct {
			V    int    `json:"v"`
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		if obj.V != mobilegossip.EventSchema {
			t.Fatalf("line %d schema %d, want %d", i+1, obj.V, mobilegossip.EventSchema)
		}
		ty, err := mobilegossip.ParseEventType(obj.Type)
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if ty == mobilegossip.EventRoundCompleted {
			roundLines++
		}
	}
	if roundLines != res.Rounds {
		t.Fatalf("%d round_completed lines, want %d", roundLines, res.Rounds)
	}
}

func TestEventTypesSurface(t *testing.T) {
	types := mobilegossip.EventTypes()
	if len(types) != 10 {
		t.Fatalf("EventTypes() = %d types, want 10", len(types))
	}
	for _, ty := range types {
		back, err := mobilegossip.ParseEventType(ty.String())
		if err != nil || back != ty {
			t.Fatalf("ParseEventType(%q) = %v, %v", ty.String(), back, err)
		}
	}
}
