package mobilegossip_test

// Tests for Simulation.Rebind: phased timelines (scenario files, DESIGN.md
// §15) switch topology and τ at round boundaries, and the switch must
// preserve every session invariant — determinism across engine workers,
// checkpoint/resume byte-compatibility, and the event-stream contract.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"mobilegossip"
)

// stepTo advances the session to the target round, tolerating early
// completion.
func stepTo(t *testing.T, sim *mobilegossip.Simulation, target int) {
	t.Helper()
	for !sim.Done() && sim.Round() < target {
		if _, err := sim.Step(); err != nil && !errors.Is(err, mobilegossip.ErrSimulationDone) {
			t.Fatal(err)
		}
	}
}

// runPhased drives a two-phase run — waypoint for 10 rounds, then a
// rebind to a random-regular redraw — and returns the result.
func runPhased(t *testing.T, workers int) mobilegossip.Result {
	t.Helper()
	sim, err := mobilegossip.New(mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 40, K: 4,
		Topology: mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Speed: 0.03},
		Tau:      1, Seed: 21, EngineWorkers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	stepTo(t, sim, 10)
	if err := sim.Rebind(mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4}, 2); err != nil {
		t.Fatal(err)
	}
	stepTo(t, sim, 0x7fffffff)
	return sim.Result()
}

func TestRebindDeterministicAcrossWorkers(t *testing.T) {
	base := runPhased(t, 1)
	for _, workers := range []int{2, 7} {
		got := runPhased(t, workers)
		if got.Rounds != base.Rounds || got.Connections != base.Connections ||
			got.FinalPotential != base.FinalPotential || got.TokensMoved != base.TokensMoved {
			t.Fatalf("workers=%d diverged: %+v vs %+v", workers, got, base)
		}
	}
}

func TestRebindUpdatesResultTopology(t *testing.T) {
	res := runPhased(t, 1)
	if res.Topology == "" || res.Topology == "mobility(waypoint(v=0.03),τ=1,r=0.2529)" {
		t.Fatalf("result should report the rebound topology, got %q", res.Topology)
	}
}

// TestRebindCheckpointResume: a checkpoint taken after a rebind carries
// the rebound schedule, so the resumed session finishes identically.
func TestRebindCheckpointResume(t *testing.T) {
	run := func(split int) (mobilegossip.Result, []byte) {
		sim, err := mobilegossip.New(mobilegossip.Config{
			Algorithm: mobilegossip.AlgSimSharedBit, N: 32, K: 3,
			Topology: mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Speed: 0.02},
			Tau:      1, Seed: 77,
		})
		if err != nil {
			t.Fatal(err)
		}
		stepTo(t, sim, 8)
		if err := sim.Rebind(mobilegossip.Topology{Kind: mobilegossip.GNP, P: 0.2}, 1); err != nil {
			t.Fatal(err)
		}
		stepTo(t, sim, split)
		var ck bytes.Buffer
		if err := sim.Checkpoint(&ck); err != nil {
			t.Fatal(err)
		}
		stepTo(t, sim, 0x7fffffff)
		return sim.Result(), ck.Bytes()
	}
	want, ck := run(14)

	resumed, err := mobilegossip.Resume(bytes.NewReader(ck))
	if err != nil {
		t.Fatal(err)
	}
	stepTo(t, resumed, 0x7fffffff)
	got := resumed.Result()
	if got.Rounds != want.Rounds || got.FinalPotential != want.FinalPotential ||
		got.Connections != want.Connections || got.Topology != want.Topology {
		t.Fatalf("resumed run diverged: %+v vs %+v", got, want)
	}

	// The resumed session must also accept further rebinds.
	resumed2, err := mobilegossip.Resume(bytes.NewReader(ck))
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed2.Rebind(mobilegossip.Topology{Kind: mobilegossip.Complete}, 0); err != nil {
		t.Fatal(err)
	}
	stepTo(t, resumed2, 0x7fffffff)
	if !resumed2.Result().Solved {
		t.Fatal("rebind-after-resume run did not solve on a complete graph")
	}
}

func TestRebindPublishesEvent(t *testing.T) {
	sim, err := mobilegossip.New(mobilegossip.Config{
		Algorithm: mobilegossip.AlgBlindMatch, N: 16, K: 2,
		Topology: mobilegossip.Topology{Kind: mobilegossip.Cycle}, Tau: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	sub := sim.Bus().Subscribe(mobilegossip.EventFilter{
		Types: []mobilegossip.EventType{mobilegossip.EventTopologyRebound},
	}, 16)
	defer sub.Close()
	stepTo(t, sim, 3)
	if err := sim.Rebind(mobilegossip.Topology{Kind: mobilegossip.Complete}, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.Events():
		if ev.Type != mobilegossip.EventTopologyRebound || ev.Round != 3 {
			t.Fatalf("event = %+v", ev)
		}
		if ev.Topology == "" {
			t.Fatal("topology_rebound event should carry the new schedule name")
		}
	default:
		t.Fatal("no topology_rebound event published")
	}
}

func TestRebindRejectsCrowdedBinDynamic(t *testing.T) {
	sim, err := mobilegossip.New(mobilegossip.Config{
		Algorithm: mobilegossip.AlgCrowdedBin, N: 16, K: 2,
		Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4}, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = sim.Rebind(mobilegossip.Topology{Kind: mobilegossip.Cycle}, 1)
	if !errors.Is(err, mobilegossip.ErrCrowdedBinTau) {
		t.Fatalf("err = %v, want ErrCrowdedBinTau", err)
	}
	// Static rebinds stay legal for CrowdedBin.
	if err := sim.Rebind(mobilegossip.Topology{Kind: mobilegossip.Complete}, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRebindRejectsBadTopology(t *testing.T) {
	sim, err := mobilegossip.New(mobilegossip.Config{
		Algorithm: mobilegossip.AlgBlindMatch, N: 16, K: 2,
		Topology: mobilegossip.Topology{Kind: mobilegossip.Cycle}, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Rebind(mobilegossip.Topology{Kind: mobilegossip.Grid, Rows: 3, Cols: 3}, 0); err == nil {
		t.Fatal("a 3x3 grid cannot host 16 nodes; Rebind should refuse")
	}
	// The failed rebind must not have corrupted the session.
	stepTo(t, sim, 0x7fffffff)
	if !sim.Done() {
		t.Fatal("session did not finish after a rejected rebind")
	}
}

// TestPhasedCheckpointMatchesRecordedDigest is the run-level byte-identity
// check of the span-backed token sets and the Load CSR path: the bench's
// mobile-churn timeline at smoke scale — waypoint walkers, a bipartition
// adversary bound at round 30, two engine workers — checkpointed at round
// 50 must produce exactly the bytes the build before those changes wrote
// (universe-backed sets, delta-patched CSR), whose SHA-256 is recorded here.
// A change to the trajectory, the draw order or the checkpoint layout moves
// it; regenerate only with a PR that names that contract change.
func TestPhasedCheckpointMatchesRecordedDigest(t *testing.T) {
	const want = "2020fc91e20b556cadfc841549c261b1b5fc9a2110f06b0770ce167950b6dc46"
	roam := mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Speed: 0.01}
	sim, err := mobilegossip.New(mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 2500, K: 4,
		Topology: roam, Tau: 1, Seed: 11, EngineWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	stepTo(t, sim, 30)
	jammed := roam
	jammed.Adversary, jammed.AdvBudget = mobilegossip.AdvBipartition, 500
	if err := sim.Rebind(jammed, 1); err != nil {
		t.Fatal(err)
	}
	stepTo(t, sim, 50)
	if sim.Round() != 50 {
		t.Fatalf("run ended at round %d, before the checkpoint round", sim.Round())
	}
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("round-50 checkpoint (%d bytes) has SHA-256 %s, recorded %s", buf.Len(), got, want)
	}
}
