package mobilegossip_test

// Tests for the observer pipeline: the provided observers must agree with
// the engine's own meters.

import (
	"context"
	"io"
	"runtime"
	"testing"

	"mobilegossip"
)

// TestObserverLifecycle checks BeginRun/EndRound/EndRun ordering and
// counts against a plain run.
func TestObserverLifecycle(t *testing.T) {
	type event struct {
		kind  string
		round int
	}
	var events []event
	obs := &recordingObserver{on: func(kind string, round int) {
		events = append(events, event{kind, round})
	}}
	cfg := mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 16, K: 4,
		Topology:  mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4},
		Seed:      2,
		Observers: []mobilegossip.Observer{obs},
	}
	res, err := mobilegossip.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != res.Rounds+2 {
		t.Fatalf("%d events for a %d-round run, want begin + rounds + end", len(events), res.Rounds)
	}
	if events[0].kind != "begin" || events[0].round != 0 {
		t.Fatalf("first event %+v", events[0])
	}
	for i := 1; i <= res.Rounds; i++ {
		if events[i].kind != "round" || events[i].round != i {
			t.Fatalf("event %d = %+v", i, events[i])
		}
	}
	if last := events[len(events)-1]; last.kind != "end" || last.round != res.Rounds {
		t.Fatalf("last event %+v", last)
	}
}

type recordingObserver struct {
	mobilegossip.NopObserver
	on func(kind string, round int)
}

func (r *recordingObserver) BeginRun(sim *mobilegossip.Simulation) { r.on("begin", sim.Round()) }
func (r *recordingObserver) EndRound(s mobilegossip.RoundStats)    { r.on("round", s.Round) }
func (r *recordingObserver) EndRun(res mobilegossip.Result)        { r.on("end", res.Rounds) }

// TestPotentialSamplerFinalRound: the curve must end at the final round
// even when MaxRounds stops the run between sampling points.
func TestPotentialSamplerFinalRound(t *testing.T) {
	sampler := mobilegossip.NewPotentialSampler(20)
	res, err := mobilegossip.Run(mobilegossip.Config{
		Algorithm: mobilegossip.AlgBlindMatch, N: 32, K: 32,
		Topology: mobilegossip.Topology{Kind: mobilegossip.DoubleStar},
		Seed:     4, MaxRounds: 50,
		Observers: []mobilegossip.Observer{sampler},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved || res.Rounds != 50 {
		t.Fatalf("want an aborted 50-round run, got %+v", res)
	}
	samples := sampler.Samples()
	last := samples[len(samples)-1]
	if last.Round != 50 || last.Potential != res.FinalPotential {
		t.Fatalf("curve ends at %+v, want round 50 φ=%d", last, res.FinalPotential)
	}
}

// TestChurnMeterMatchesResult: the meter must agree with the engine's own
// churn accounting.
func TestChurnMeterMatchesResult(t *testing.T) {
	cm := mobilegossip.NewChurnMeter()
	cfg := mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 60, K: 4,
		Topology:  mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Speed: 0.03},
		Tau:       1,
		Seed:      7,
		Observers: []mobilegossip.Observer{cm},
	}
	res, err := mobilegossip.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cm.EdgesAdded() != res.EdgesAdded || cm.EdgesRemoved() != res.EdgesRemoved {
		t.Fatalf("meter ±%d/%d, result ±%d/%d",
			cm.EdgesAdded(), cm.EdgesRemoved(), res.EdgesAdded, res.EdgesRemoved)
	}
	if cm.Rounds() != res.Rounds {
		t.Fatalf("meter saw %d rounds, result has %d", cm.Rounds(), res.Rounds)
	}
	if cm.Changes() == 0 {
		t.Fatal("a τ=1 mobility run should change topology")
	}
}

// TestObserveMidRun: observers attached mid-run see only subsequent
// rounds (and no BeginRun).
func TestObserveMidRun(t *testing.T) {
	cfg := mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 16, K: 4,
		Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4},
		Seed:     8,
	}
	sim, err := mobilegossip.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var events []string
	sim.Observe(&recordingObserver{on: func(kind string, round int) {
		events = append(events, kind)
	}})
	res, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantRounds := res.Rounds - 3
	if len(events) != wantRounds+1 { // EndRounds + EndRun, no BeginRun
		t.Fatalf("mid-run observer saw %d events, want %d rounds + end", len(events), wantRounds)
	}
	if events[0] != "round" || events[len(events)-1] != "end" {
		t.Fatalf("event kinds: %v", events)
	}
}

// TestObserveTraceAutoEngineWorkers: attaching a protocol-tapping observer
// drops an auto-resolved session to one worker, and the session remembers
// it — re-resolving auto with SetEngineWorkers(0) must not re-parallelise
// the tapped run (trace order would follow goroutine scheduling again). An
// explicit count ≥ 2 is still honoured.
func TestObserveTraceAutoEngineWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sim, err := mobilegossip.New(mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 8192, K: 2,
		Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4},
		Seed:     8, Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	stepWorkers := func() int {
		t.Helper()
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		return sim.Profiler().Last().Workers
	}
	if w := stepWorkers(); w != 4 { // GOMAXPROCS 4, 8192/2048 = 4
		t.Fatalf("auto resolved to %d workers, want 4", w)
	}
	sim.Observe(mobilegossip.NewTraceObserver(io.Discard))
	if w := stepWorkers(); w != 1 {
		t.Fatalf("tapped auto session ran %d workers, want 1", w)
	}
	sim.SetEngineWorkers(0)
	if w := stepWorkers(); w != 1 {
		t.Fatalf("SetEngineWorkers(0) re-parallelised the tapped session to %d workers", w)
	}
	sim.SetEngineWorkers(3)
	if w := stepWorkers(); w != 3 {
		t.Fatalf("explicit EngineWorkers 3 ran %d workers", w)
	}
}
