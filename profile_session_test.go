package mobilegossip_test

// Integration tests for the profiling layer at the session surface:
// round_profile events, the determinism contract (profiling on vs off),
// live /metrics scrapes against a profiled session, and the resume path
// (DESIGN.md §13).

import (
	"bytes"
	"context"
	"io"
	"strings"
	"sync"
	"testing"

	"mobilegossip"
	"mobilegossip/internal/profile"
)

func profiledConfig(seed uint64) mobilegossip.Config {
	return mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 128, K: 16,
		Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 6},
		Tau:      1, Seed: seed, Profile: true,
	}
}

func TestProfiledSessionEvents(t *testing.T) {
	rec, res := collectRun(t, profiledConfig(11))
	profs := rec.Events(mobilegossip.EventFilter{
		Types: []mobilegossip.EventType{mobilegossip.EventRoundProfile},
	})
	if len(profs) != res.Rounds {
		t.Fatalf("%d round_profile events, want one per round (%d)", len(profs), res.Rounds)
	}
	for i, ev := range profs {
		if ev.Round != i+1 {
			t.Fatalf("round_profile %d has round %d", i, ev.Round)
		}
		if ev.RoundNanos <= 0 {
			t.Fatalf("round %d: non-positive round_ns %d", ev.Round, ev.RoundNanos)
		}
		if ev.Workers != 1 {
			t.Fatalf("round %d: workers %d, want 1", ev.Round, ev.Workers)
		}
		if ev.ReductionNanos != 0 || ev.ImbalanceMilli != 0 || ev.BarrierNanos != 0 {
			t.Fatalf("round %d: round carries shard data: %+v", ev.Round, ev)
		}
		if _, err := profile.ParseHealth(ev.Health); err != nil {
			t.Fatalf("round %d: bad health %q", ev.Round, ev.Health)
		}
	}
	// A solved short run converges throughout.
	if h := profs[len(profs)-1].Health; res.Solved && h != "converging" {
		t.Fatalf("final health %q on a solved run, want converging", h)
	}

	// Each round_profile follows its round_completed.
	evs := rec.Events(mobilegossip.EventFilter{})
	for i, ev := range evs {
		if ev.Type != mobilegossip.EventRoundProfile {
			continue
		}
		if i == 0 || evs[i-1].Type != mobilegossip.EventRoundCompleted || evs[i-1].Round != ev.Round {
			t.Fatalf("round_profile %d not preceded by its round_completed", ev.Round)
		}
	}
}

// TestProfiledRunIdenticalResults is the session-level read-only
// contract: identical Result and potential trajectory with profiling on
// vs off.
func TestProfiledRunIdenticalResults(t *testing.T) {
	cfg := profiledConfig(23)
	cfg.Profile = false
	recOff, resOff := collectRun(t, cfg)
	cfg.Profile = true
	recOn, resOn := collectRun(t, cfg)
	if resOff != resOn {
		t.Fatalf("results diverged:\noff %+v\non  %+v", resOff, resOn)
	}
	f := mobilegossip.EventFilter{Types: []mobilegossip.EventType{mobilegossip.EventRoundCompleted}}
	off, on := recOff.Events(f), recOn.Events(f)
	if len(off) != len(on) {
		t.Fatalf("%d vs %d rounds", len(off), len(on))
	}
	for i := range off {
		if off[i] != on[i] {
			t.Fatalf("round %d diverged:\noff %+v\non  %+v", i+1, off[i], on[i])
		}
	}
}

// TestProfiledCheckpointBytesIdentical pins the strongest compatibility
// claim: the checkpoint stream is byte-identical whether or not the
// writing session is profiled, so profiled and unprofiled runs produce
// interchangeable checkpoints.
func TestProfiledCheckpointBytesIdentical(t *testing.T) {
	step := func(profileOn bool) []byte {
		cfg := profiledConfig(31)
		cfg.Profile = profileOn
		sim, err := mobilegossip.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := sim.Step(); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := sim.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(step(false), step(true)) {
		t.Fatal("checkpoint bytes differ with profiling on vs off")
	}
}

func TestProfiledResumeViaEnableProfiling(t *testing.T) {
	sim, err := mobilegossip.New(profiledConfig(41))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	ckpt := buf.Bytes()
	// checkpoint_written carried a measured write time on the profiled
	// session, and the recorder kept it too.
	if sim.Profiler() == nil || sim.Profiler().CheckpointWrite().Count() != 1 {
		t.Fatal("profiled Checkpoint not recorded in the write histogram")
	}

	// Profile is deliberately not serialized: the revived session starts
	// unprofiled and EnableProfiling re-attaches the sidecar mid-run.
	revived, err := mobilegossip.Resume(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if revived.Profiler() != nil || revived.Config().Profile {
		t.Fatal("Profile leaked through the checkpoint")
	}
	if revived.Health() != mobilegossip.HealthUnknown {
		t.Fatalf("unprofiled health = %v, want unknown", revived.Health())
	}
	revived.EnableProfiling()
	if _, err := revived.Step(); err != nil {
		t.Fatal(err)
	}
	if revived.Profiler().Rounds() != 1 {
		t.Fatalf("revived recorder saw %d rounds, want 1", revived.Profiler().Rounds())
	}
	if revived.Health() == mobilegossip.HealthUnknown {
		t.Fatal("health still unknown after a profiled round")
	}
}

// TestProfiledMetricsScrapeConcurrent runs a profiled session while
// goroutines hammer the MetricsCollector exposition — the live-scrape path
// the race-concurrent CI pass pins.
func TestProfiledMetricsScrapeConcurrent(t *testing.T) {
	sim, err := mobilegossip.New(profiledConfig(53))
	if err != nil {
		t.Fatal(err)
	}
	col := mobilegossip.NewMetricsCollector()
	col.Attach(sim.Bus())

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 4; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if _, err := col.WriteTo(io.Discard); err != nil {
						t.Error(err)
						return
					}
					sim.Profiler().RoundLatency().Quantile(0.99)
					_ = sim.Health().String()
				}
			}
		}()
	}
	res, err := sim.Run(context.Background())
	close(stop)
	scrapers.Wait()
	if err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if _, err := col.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mobilegossip_round_latency_seconds_bucket",
		"mobilegossip_phase_proposal_seconds_sum",
		"mobilegossip_session_health{state=",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("final exposition missing %s", want)
		}
	}
	if col.Health() == mobilegossip.HealthUnknown {
		t.Error("collector health unknown after a profiled run")
	}
	_ = res
}
