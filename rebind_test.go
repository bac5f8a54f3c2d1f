package mobilegossip_test

// Tests for Simulation.Rebind: phased timelines (scenario files, DESIGN.md
// §15) switch topology and τ at round boundaries, and the switch must
// preserve every session invariant — determinism, checkpoint/resume byte-compatibility, and the event-stream contract.

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

// TestRebindDeterministicAcrossWorkers: EngineWorkers is ignored, so every
// setting replays the same phased run.
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
	var got []mobilegossip.Event
	cancel := sim.Bus().SubscribeSync(mobilegossip.EventFilter{
		Types: []mobilegossip.EventType{mobilegossip.EventTopologyRebound},
	}, func(ev mobilegossip.Event) { got = append(got, ev) })
	defer cancel()
	stepTo(t, sim, 3)
	if err := sim.Rebind(mobilegossip.Topology{Kind: mobilegossip.Complete}, 0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d topology_rebound events published, want 1", len(got))
	}
	if ev := got[0]; ev.Type != mobilegossip.EventTopologyRebound || ev.Round != 3 {
		t.Fatalf("event = %+v", ev)
	}
	if got[0].Topology == "" {
		t.Fatal("topology_rebound event should carry the new schedule name")
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

// digestRow is one recorded checkpoint: a run's configuration, an optional
// rebind to a jammed topology at round 30, and the round it is
// checkpointed at. The rows cover every block kind the stream carries.
type digestRow struct {
	name  string
	cfg   mobilegossip.Config
	jam   *mobilegossip.Topology // rebound to at round 30, when set
	round int
	want  string // SHA-256 of the checkpoint
}

var digestRows = []digestRow{
	{name: "waypoint-bipartition", cfg: mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 2500, K: 4,
		Topology: mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Speed: 0.01},
		Tau:      1, Seed: 11, EngineWorkers: 2,
	}, jam: &mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Speed: 0.01,
		Adversary: mobilegossip.AdvBipartition, AdvBudget: 500},
		round: 50, want: "2020fc91e20b556cadfc841549c261b1b5fc9a2110f06b0770ce167950b6dc46"},
	{name: "blindmatch-cycle", cfg: mobilegossip.Config{
		Algorithm: mobilegossip.AlgBlindMatch, N: 48, K: 6, Seed: 3,
		Topology: mobilegossip.Topology{Kind: mobilegossip.Cycle},
	}, round: 40, want: "c51afd62fbd660bd8db2544d27da4fa38151b0ff50dceacaa5bbff2483ceeb34"},
	{name: "sharedbit-tagbits2-regular-tau2", cfg: mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 64, K: 8, TagBits: 2, Tau: 2, Seed: 4,
		Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular},
	}, round: 7, want: "4b8b3a3d831a6fad1a62e9ffd799570e765d0750e61c04ac84840886e182a670"},
	{name: "simsharedbit", cfg: mobilegossip.Config{
		Algorithm: mobilegossip.AlgSimSharedBit, N: 64, K: 8, Seed: 5,
		Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular},
	}, round: 20, want: "90e6c84f66db856e380579c9f36f4122edbd94a57d898a6dffc3a5244189b26a"},
	{name: "crowdedbin-300", cfg: crowdedBinDigestConfig, round: 300, want: "0cdf418b86b98bb7bc3b64eb33ef3283697b69415e9d88d9d050e6ce78f7fe45"},
	{name: "crowdedbin-3000", cfg: crowdedBinDigestConfig, round: 3000, want: "9823fb7f778232504ddfbb5b8ba1a44c223f15ffcc9995a38457dbda170de352"},
	{name: "epsilon", cfg: mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 48, K: 48, Epsilon: 0.25, Seed: 6,
		Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular},
	}, round: 10, want: "c7616cfc0c139b00125090237b3e0239569dd49128dea2a052831ed9a7babe07"},
	{name: "levy", cfg: mobilityDigestConfig(mobilegossip.MobileLevy), round: 6, want: "5da2407d587712dd4c3f260e887d28ff5242791643f5604f697fafcad4a8a0dc"},
	{name: "group", cfg: mobilityDigestConfig(mobilegossip.MobileGroup), round: 6, want: "315d8ff610dfb9f292c0a6bc5d7190a1a8e0ba5bd6c736f1e9ce6918a785f3f6"},
	{name: "commuter", cfg: mobilityDigestConfig(mobilegossip.MobileCommuter), round: 6, want: "03c6a18d3b844fec14cc4e1a701af6d985b9d0e66536797f9bbf383172f80591"},
	{name: "cutrich-static", cfg: mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 64, K: 8, Seed: 8,
		Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 6,
			Adversary: mobilegossip.AdvCutRich, AdvBudget: 16},
	}, round: 12, want: "52c08d7d1b10adb32c43ce41b1a91d9755e38d367a199dbbcd5cb872899cd913"},
	{name: "topk-static", cfg: mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 64, K: 8, Seed: 9,
		Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 6,
			Adversary: mobilegossip.AdvTopK, AdvParts: 3},
	}, round: 12, want: "fd0ee3b03f15d189558ec11407b6b40fc4f4aa6f75453fcb9d20766e4e40c1d4"},
	{name: "round-0", cfg: mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 32, K: 4, Seed: 10,
		Topology: mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Speed: 0.03,
			Adversary: mobilegossip.AdvBridges, AdvParts: 3},
		Tau: 1,
	}, round: 0, want: "0b018b3f34e57ba870468c2f0736af164a939f54a29207db4baff818632be80d"},
}

// crowdedBinDigestConfig runs long enough that its round-3,000 checkpoint
// carries populated tag, stash and hear maps.
var crowdedBinDigestConfig = mobilegossip.Config{
	Algorithm: mobilegossip.AlgCrowdedBin, N: 96, K: 24, Seed: 7,
	Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular},
}

func mobilityDigestConfig(kind mobilegossip.TopologyKind) mobilegossip.Config {
	return mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 200, K: 6, Tau: 1, Seed: 12,
		Topology: mobilegossip.Topology{Kind: kind, Speed: 0.02},
	}
}

// checkpoint runs the row to its round and returns the checkpoint there.
func (row digestRow) checkpoint(tb testing.TB) []byte {
	tb.Helper()
	sim, err := mobilegossip.New(row.cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for sim.Round() < row.round {
		if row.jam != nil && sim.Round() == 30 {
			if err := sim.Rebind(*row.jam, row.cfg.Tau); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := sim.Step(); err != nil {
			tb.Fatal(err)
		}
		if sim.Done() && sim.Round() < row.round {
			tb.Fatalf("%s: run ended at round %d, before the checkpoint round %d", row.name, sim.Round(), row.round)
		}
	}
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestPhasedCheckpointMatchesRecordedDigest pins the bytes of every
// checkpoint block kind: each row's checkpoint must have the SHA-256
// recorded here, and resuming it and checkpointing again must reproduce it.
// The first row is the bench's mobile-churn timeline at smoke scale —
// waypoint walkers, a bipartition adversary bound at round 30, two engine
// workers — checkpointed at round 50; its digest was recorded before the
// span-backed token sets and the Load CSR path. The others cover the
// protocols (BlindMatch, b-bit SharedBit on a regenerated graph,
// SimSharedBit, CrowdedBin early and with full tag maps, ε-gossip), the
// other mobility models, the adversary over a static base, and a round-0
// checkpoint. A change to a trajectory, the draw order or the checkpoint
// layout moves a digest; regenerate only with a change that names that
// contract change.
func TestPhasedCheckpointMatchesRecordedDigest(t *testing.T) {
	for _, row := range digestRows {
		t.Run(row.name, func(t *testing.T) {
			data := row.checkpoint(t)
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != row.want {
				t.Fatalf("round-%d checkpoint (%d bytes) has SHA-256 %s, recorded %s", row.round, len(data), got, row.want)
			}
			sim, err := mobilegossip.Resume(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := sim.Checkpoint(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), data) {
				t.Fatalf("Resume → Checkpoint wrote %d bytes that differ from the %d resumed", again.Len(), len(data))
			}
		})
	}
}
