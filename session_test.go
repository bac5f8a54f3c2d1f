package mobilegossip_test

// Tests for the stateful session API: New+Step loops, Run(ctx)
// cancellation, and checkpoint/resume must all reproduce the legacy
// blocking Run byte-for-byte, for every algorithm on static, τ-dynamic and
// mobility topologies.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"mobilegossip"
)

// sessionMatrix is the algorithm × topology grid the ISSUE's acceptance
// criteria name. CrowdedBin requires a static topology, so its dynamic
// cell runs the mobility schedule frozen (Tau = 0) instead of τ-dynamic.
func sessionMatrix() []mobilegossip.Config {
	static := mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4}
	dynamic := mobilegossip.Topology{Kind: mobilegossip.Cycle}
	mobile := mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Speed: 0.03}

	var cfgs []mobilegossip.Config
	for _, alg := range []mobilegossip.Algorithm{
		mobilegossip.AlgBlindMatch,
		mobilegossip.AlgSharedBit,
		mobilegossip.AlgSimSharedBit,
	} {
		cfgs = append(cfgs,
			mobilegossip.Config{Algorithm: alg, N: 20, K: 4, Topology: static, Seed: 11},
			mobilegossip.Config{Algorithm: alg, N: 16, K: 3, Topology: dynamic, Tau: 2, Seed: 12},
			mobilegossip.Config{Algorithm: alg, N: 40, K: 4, Topology: mobile, Tau: 1, Seed: 13},
		)
	}
	cfgs = append(cfgs,
		mobilegossip.Config{Algorithm: mobilegossip.AlgCrowdedBin, N: 20, K: 4, Topology: static, Seed: 14},
		mobilegossip.Config{Algorithm: mobilegossip.AlgCrowdedBin, N: 40, K: 4, Topology: mobile, Seed: 15},
		// ε-gossip and the multi-bit generalization ride along for coverage.
		mobilegossip.Config{Algorithm: mobilegossip.AlgSharedBit, N: 16, K: 16,
			Topology: mobilegossip.Topology{Kind: mobilegossip.Complete}, Epsilon: 0.5, Seed: 16},
		mobilegossip.Config{Algorithm: mobilegossip.AlgSharedBit, N: 20, K: 4,
			Topology: static, TagBits: 4, Tau: 1, Seed: 17},
	)
	// Every adversary strategy gets a cell: the step/checkpoint/resume
	// invariants must hold under adversarial topologies too — including the
	// adaptive strategies, whose cuts depend on the live token state, and
	// the mobility composition (adversary perturbing a moving crowd).
	for i, adv := range mobilegossip.AdversaryKinds() {
		cfgs = append(cfgs, mobilegossip.Config{
			Algorithm: mobilegossip.AlgSharedBit, N: 24, K: 4,
			Topology: mobilegossip.Topology{
				Kind: mobilegossip.RandomRegular, Degree: 4,
				Adversary: adv, AdvBudget: 12, AdvPeriod: 4,
			},
			Tau: 1, Seed: uint64(30 + i),
		})
	}
	cfgs = append(cfgs,
		// Adaptive adversary over a moving crowd (the full composition).
		mobilegossip.Config{Algorithm: mobilegossip.AlgSimSharedBit, N: 32, K: 3,
			Topology: mobilegossip.Topology{
				Kind: mobilegossip.MobileWaypoint, Speed: 0.03,
				Adversary: mobilegossip.AdvCutRich, AdvBudget: 10,
			},
			Tau: 1, Seed: 38},
		// Frozen sabotage: a statically perturbed topology (τ = ∞), which
		// is what lets CrowdedBin run under an adversary.
		mobilegossip.Config{Algorithm: mobilegossip.AlgCrowdedBin, N: 24, K: 4,
			Topology: mobilegossip.Topology{
				Kind: mobilegossip.RandomRegular, Degree: 4,
				Adversary: mobilegossip.AdvBipartition,
			},
			Seed: 39},
	)
	return cfgs
}

func cfgName(cfg mobilegossip.Config) string {
	name := fmt.Sprintf("%v_%v_tau%d_eps%v_b%d", cfg.Algorithm, cfg.Topology.Kind, cfg.Tau, cfg.Epsilon, cfg.TagBits)
	if cfg.Topology.Adversary != mobilegossip.AdvNone {
		name += "_adv" + cfg.Topology.Adversary.String()
	}
	return name
}

// TestSessionMatchesRun checks that New+Step and New+Run(ctx) reproduce
// the blocking Run exactly on the full matrix.
func TestSessionMatchesRun(t *testing.T) {
	for _, cfg := range sessionMatrix() {
		cfg := cfg
		t.Run(cfgName(cfg), func(t *testing.T) {
			want, err := mobilegossip.Run(cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !want.Solved {
				t.Fatalf("baseline not solved in %d rounds", want.Rounds)
			}

			// Manual step loop.
			sim, err := mobilegossip.New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			steps := 0
			for !sim.Done() {
				stats, err := sim.Step()
				if err != nil {
					t.Fatalf("Step %d: %v", steps, err)
				}
				steps++
				if stats.Round != steps {
					t.Fatalf("round %d reported as %d", steps, stats.Round)
				}
				if steps > want.Rounds {
					t.Fatalf("step loop ran past the baseline's %d rounds", want.Rounds)
				}
			}
			if got := sim.Result(); got != want {
				t.Fatalf("Step loop diverged:\n got %+v\nwant %+v", got, want)
			}
			if sim.Round() != want.Rounds || sim.Potential() != want.FinalPotential {
				t.Fatalf("accessors diverged: round %d φ %d", sim.Round(), sim.Potential())
			}
			if _, err := sim.Step(); !errors.Is(err, mobilegossip.ErrSimulationDone) {
				t.Fatalf("Step after done: err = %v", err)
			}

			// Context-driven run.
			sim2, err := mobilegossip.New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			got2, err := sim2.Run(context.Background())
			if err != nil {
				t.Fatalf("Run(ctx): %v", err)
			}
			if got2 != want {
				t.Fatalf("Run(ctx) diverged:\n got %+v\nwant %+v", got2, want)
			}
		})
	}
}

// TestCheckpointResumeMatchesRun checkpoints every matrix cell mid-run and
// checks the resumed session finishes byte-identically — and that the
// original session, stepping on past its checkpoint, agrees too.
func TestCheckpointResumeMatchesRun(t *testing.T) {
	for _, cfg := range sessionMatrix() {
		cfg := cfg
		t.Run(cfgName(cfg), func(t *testing.T) {
			want, err := mobilegossip.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			at := want.Rounds / 2

			sim, err := mobilegossip.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < at; i++ {
				if _, err := sim.Step(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			var buf bytes.Buffer
			if err := sim.Checkpoint(&buf); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}

			// Checkpoints of identical state are byte-identical.
			var buf2 bytes.Buffer
			if err := sim.Checkpoint(&buf2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Fatal("two checkpoints of the same state differ")
			}

			resumed, err := mobilegossip.Resume(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			if resumed.Round() != at {
				t.Fatalf("resumed at round %d, want %d", resumed.Round(), at)
			}
			gotResumed, err := resumed.Run(context.Background())
			if err != nil {
				t.Fatalf("resumed Run: %v", err)
			}
			if gotResumed != want {
				t.Fatalf("resumed run diverged:\n got %+v\nwant %+v", gotResumed, want)
			}

			// The original session is unperturbed by having been checkpointed.
			gotOrig, err := sim.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if gotOrig != want {
				t.Fatalf("original run diverged after checkpoint:\n got %+v\nwant %+v", gotOrig, want)
			}
		})
	}
}

// inertRun is everything a session emits: its Result, event JSONL and a
// checkpoint taken at round 3.
type inertRun struct {
	res           mobilegossip.Result
	events, ckpt3 []byte
}

func runInert(t *testing.T, cfg mobilegossip.Config) inertRun {
	t.Helper()
	var events, ckpt3 bytes.Buffer
	sim, err := mobilegossip.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := mobilegossip.NewJSONLSink(sim.Bus(), &events, mobilegossip.EventFilter{}, 0)
	for !sim.Done() {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		if sim.Round() == 3 {
			if err := sim.Checkpoint(&ckpt3); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sink.Close(); err != nil || sink.Dropped() != 0 {
		t.Fatalf("event sink: err %v, %d dropped", err, sink.Dropped())
	}
	return inertRun{sim.Result(), events.Bytes(), ckpt3.Bytes()}
}

// TestEngineWorkersDeterministic: Config.EngineWorkers is accepted and
// ignored. Over the session matrix, auto, one and several workers must
// give the same Result, event JSONL and checkpoint bytes. Heavy (the
// matrix runs 5×), so -short skips it.
func TestEngineWorkersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("5× full session matrix")
	}
	for _, cfg := range sessionMatrix() {
		cfg := cfg
		t.Run(cfgName(cfg), func(t *testing.T) {
			want := runInert(t, cfg)
			if len(want.ckpt3) == 0 {
				t.Fatalf("run of %d rounds wrote no round-3 checkpoint", want.res.Rounds)
			}
			for _, w := range []int{1, 2, 4, 7} {
				cfg.EngineWorkers = w
				got := runInert(t, cfg)
				switch {
				case got.res != want.res:
					t.Fatalf("EngineWorkers %d: result %+v, want %+v", w, got.res, want.res)
				case !bytes.Equal(got.events, want.events):
					t.Fatalf("EngineWorkers %d: event JSONL differs", w)
				case !bytes.Equal(got.ckpt3, want.ckpt3):
					t.Fatalf("EngineWorkers %d: round-3 checkpoint differs", w)
				}
			}
		})
	}
}

// TestShardedCheckpointInterchangeable: a session configured for one
// worker and one configured for four write byte-identical checkpoints at
// the same round, and the four-worker checkpoint, resumed, finishes as
// the uninterrupted one-worker run — as does the four-worker session
// stepping on past it. EngineWorkers is not serialized, so no setting
// can make two checkpoints of one state differ.
func TestShardedCheckpointInterchangeable(t *testing.T) {
	for _, cfg := range []mobilegossip.Config{
		{Algorithm: mobilegossip.AlgSharedBit, N: 96, K: 8,
			Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4}, Seed: 61},
		{Algorithm: mobilegossip.AlgSimSharedBit, N: 80, K: 6,
			Topology: mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Speed: 0.03}, Tau: 1, Seed: 62},
		{Algorithm: mobilegossip.AlgSharedBit, N: 64, K: 6,
			Topology: mobilegossip.Topology{
				Kind: mobilegossip.RandomRegular, Degree: 4,
				Adversary: mobilegossip.AdvCutRich, AdvBudget: 20, AdvPeriod: 3,
			}, Tau: 1, Seed: 63},
	} {
		cfg := cfg
		t.Run(cfgName(cfg), func(t *testing.T) {
			cfg.EngineWorkers = 1
			want, err := mobilegossip.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			at := want.Rounds / 2

			stepTo := func(workers int) (*mobilegossip.Simulation, []byte) {
				cfg.EngineWorkers = workers
				sim, err := mobilegossip.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < at; i++ {
					if _, err := sim.Step(); err != nil {
						t.Fatalf("workers %d step %d: %v", workers, i, err)
					}
				}
				var buf bytes.Buffer
				if err := sim.Checkpoint(&buf); err != nil {
					t.Fatalf("workers %d checkpoint: %v", workers, err)
				}
				return sim, buf.Bytes()
			}
			_, ckpt1 := stepTo(1)
			sim4, ckpt4 := stepTo(4)
			if !bytes.Equal(ckpt1, ckpt4) {
				t.Fatal("one-worker and four-worker checkpoints of the same round differ")
			}

			resumed, err := mobilegossip.Resume(bytes.NewReader(ckpt4))
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			for i, sim := range []*mobilegossip.Simulation{resumed, sim4} {
				name := []string{"resumed", "four-worker"}[i]
				got, err := sim.Run(context.Background())
				if err != nil {
					t.Fatalf("%s Run: %v", name, err)
				}
				if got != want {
					t.Fatalf("%s run diverged:\n got %+v\nwant %+v", name, got, want)
				}
			}
		})
	}
}

// phiTrace is a run summary plus its full per-round potential trace, so
// comparisons see every round boundary rather than only totals.
type phiTrace struct {
	res mobilegossip.Result
	phi []int
}

func traceRun(t *testing.T, cfg mobilegossip.Config) phiTrace {
	t.Helper()
	sim, err := mobilegossip.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var tr phiTrace
	sim.Bus().SubscribeSync(roundsOnly, func(ev mobilegossip.Event) { tr.phi = append(tr.phi, ev.Potential) })
	if tr.res, err = sim.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return tr
}

func samePhiTrace(t *testing.T, label string, got, want phiTrace) {
	t.Helper()
	if got.res != want.res {
		t.Fatalf("%s: result diverged:\n got %+v\nwant %+v", label, got.res, want.res)
	}
	if len(got.phi) != len(want.phi) {
		t.Fatalf("%s: %d potential samples, want %d", label, len(got.phi), len(want.phi))
	}
	for i := range got.phi {
		if got.phi[i] != want.phi[i] {
			t.Fatalf("%s: φ diverged at round %d: got %d want %d", label, i+1, got.phi[i], want.phi[i])
		}
	}
}

// TestShardedAllStrategiesN10k runs every algorithm and every adversary
// strategy at n = 10 000 — the size at which auto EngineWorkers once split
// a round into multi-thousand-node shards — for a fixed round budget, and
// requires a seven-worker setting to match one worker round for round.
// Heavy, so -short skips it.
func TestShardedAllStrategiesN10k(t *testing.T) {
	if testing.Short() {
		t.Skip("n=10k × all strategies")
	}
	const n, k, rounds = 10000, 16, 12
	static := mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4}
	var cfgs []mobilegossip.Config
	for i, alg := range mobilegossip.Algorithms() {
		cfgs = append(cfgs, mobilegossip.Config{
			Algorithm: alg, N: n, K: k, Topology: static,
			MaxRounds: rounds, Seed: uint64(80 + i),
		})
	}
	for i, adv := range mobilegossip.AdversaryKinds() {
		cfgs = append(cfgs, mobilegossip.Config{
			Algorithm: mobilegossip.AlgSharedBit, N: n, K: k,
			Topology: mobilegossip.Topology{
				Kind: mobilegossip.RandomRegular, Degree: 4,
				Adversary: adv, AdvBudget: 500, AdvPeriod: 3,
			},
			Tau: 1, MaxRounds: rounds, Seed: uint64(90 + i),
		})
	}
	for _, cfg := range cfgs {
		cfg := cfg
		t.Run(cfgName(cfg), func(t *testing.T) {
			cfg.EngineWorkers = 1
			want := traceRun(t, cfg)
			cfg.EngineWorkers = 7
			samePhiTrace(t, cfgName(cfg), traceRun(t, cfg), want)
		})
	}
}

// TestResumeCheckpointWithRemovedConcurrentBit resumes a v3 checkpoint
// written by the last build that still had Config.Concurrent, with the bit
// set (gossipsim -concurrent -alg sharedbit -n 16 -k 4 -tau 1 -seed 3
// -checkpoint ... -checkpointat 3). The slot is read and discarded: the
// run finishes as that build finished it and as a fresh uninterrupted run
// of the same config does, and re-checkpointing the resumed state
// reproduces the fixture except for the one slot byte, now always 0 — the
// v3 format is otherwise unchanged.
func TestResumeCheckpointWithRemovedConcurrentBit(t *testing.T) {
	fixture, err := os.ReadFile("testdata/ckpt_v3_concurrent.bin")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := mobilegossip.Resume(bytes.NewReader(fixture))
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if sim.Round() != 3 {
		t.Fatalf("resumed at round %d, want 3", sim.Round())
	}

	var again bytes.Buffer
	if err := sim.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	if again.Len() != len(fixture) {
		t.Fatalf("re-checkpoint is %d bytes, fixture %d", again.Len(), len(fixture))
	}
	var diff []int
	for i, b := range again.Bytes() {
		if b != fixture[i] {
			diff = append(diff, i)
		}
	}
	if len(diff) != 1 || fixture[diff[0]] != 1 || again.Bytes()[diff[0]] != 0 {
		t.Fatalf("re-checkpoint differs from the fixture at offsets %v, want only the set Concurrent slot cleared", diff)
	}

	got, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := mobilegossip.Run(sim.Config())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("resumed run diverged from a fresh run:\n got %+v\nwant %+v", got, want)
	}
	// What the build that wrote the fixture went on to report.
	if !got.Solved || got.Rounds != 20 || got.Connections != 60 || got.Proposals != 94 ||
		got.ControlBits != 23880 || got.TokensMoved != 60 {
		t.Fatalf("resumed run finished differently from the build that wrote it: %+v", got)
	}
}

// TestResumeRefusesRemovedRelabelSlot: v3 keeps the slot of the removed
// Topology.Relabel knob. A stream that sets it ran on a renumbered graph
// this build cannot rebuild, so Resume refuses it by name rather than
// continue the run on a different graph.
func TestResumeRefusesRemovedRelabelSlot(t *testing.T) {
	checkpoint := func(tau int) []byte {
		t.Helper()
		sim, err := mobilegossip.New(mobilegossip.Config{
			Algorithm: mobilegossip.AlgSharedBit, N: 32, K: 4,
			Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4},
			Tau:      tau, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sim.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// The two streams first differ at the Tau slot; the Relabel slot is
	// the one byte before it (a zero int).
	fresh, other := checkpoint(0), checkpoint(1)
	tauAt := 0
	for fresh[tauAt] == other[tauAt] {
		tauAt++
	}
	slot := tauAt - 1
	if fresh[slot] != 0 {
		t.Fatalf("byte %d before the Tau slot is %#x, want the zero Relabel slot", slot, fresh[slot])
	}
	if _, err := mobilegossip.Resume(bytes.NewReader(fresh)); err != nil {
		t.Fatalf("unpatched checkpoint: %v", err)
	}

	fresh[slot] = 2 // the int 1 (zigzag varint): bfs, in the builds that had the knob
	sim, err := mobilegossip.Resume(bytes.NewReader(fresh))
	if sim != nil || !errors.Is(err, mobilegossip.ErrCheckpointFormat) || !strings.Contains(err.Error(), "Relabel") {
		t.Fatalf("Resume with the Relabel slot set = %v, %v; want an ErrCheckpointFormat naming Relabel", sim, err)
	}
}

// TestRunCancellation cancels a run mid-flight, checkpoints the partial
// session, and finishes it from the checkpoint — the blackout workflow.
func TestRunCancellation(t *testing.T) {
	cfg := mobilegossip.Config{
		Algorithm: mobilegossip.AlgBlindMatch, N: 32, K: 8,
		Topology: mobilegossip.Topology{Kind: mobilegossip.DoubleStar}, Seed: 9,
	}
	want, err := mobilegossip.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Rounds < 10 {
		t.Fatalf("baseline too short (%d rounds) to cancel meaningfully", want.Rounds)
	}

	ctx, cancel := context.WithCancel(context.Background())
	stopAt := want.Rounds / 3
	sim, err := mobilegossip.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Bus().SubscribeSync(roundsOnly, func(ev mobilegossip.Event) {
		if ev.Round == stopAt {
			cancel()
		}
	})
	partial, err := sim.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: err = %v, want context.Canceled", err)
	}
	if partial.Solved || partial.Rounds != stopAt {
		t.Fatalf("partial result %+v, want %d unsolved rounds", partial, stopAt)
	}
	if sim.Done() {
		t.Fatal("canceled simulation reports Done")
	}

	// Checkpoint the canceled session and finish it elsewhere.
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := mobilegossip.Resume(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("resumed-after-cancel diverged:\n got %+v\nwant %+v", got, want)
	}

	// And the canceled session itself can simply continue.
	got2, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got2 != want {
		t.Fatalf("continued-after-cancel diverged:\n got %+v\nwant %+v", got2, want)
	}
}

// TestResumeRejectsGarbage pins the version/format error contract.
func TestResumeRejectsGarbage(t *testing.T) {
	if _, err := mobilegossip.Resume(bytes.NewReader([]byte("not a checkpoint"))); !errors.Is(err, mobilegossip.ErrCheckpointFormat) {
		t.Fatalf("garbage: err = %v, want ErrCheckpointFormat", err)
	}
	// A truncated but well-started stream must fail loudly, not panic.
	cfg := mobilegossip.Config{Algorithm: mobilegossip.AlgSharedBit, N: 8, K: 2, Seed: 1}
	sim, err := mobilegossip.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := mobilegossip.Resume(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated checkpoint resumed without error")
	}
}

// TestCheckpointBeforeStartAndAfterFinish covers the boundary rounds.
func TestCheckpointBeforeStartAndAfterFinish(t *testing.T) {
	cfg := mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 16, K: 4,
		Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4}, Seed: 3,
	}
	want, err := mobilegossip.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Round 0: a checkpoint before any step is a (fat) way to spell New.
	sim, err := mobilegossip.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := mobilegossip.Resume(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := resumed.Run(context.Background()); err != nil || got != want {
		t.Fatalf("round-0 resume: %v %+v", err, got)
	}

	// After completion: the resumed session is immediately Done with the
	// same Result.
	if _, err := sim.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := sim.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	final, err := mobilegossip.Resume(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done() {
		t.Fatal("resumed finished run not Done")
	}
	if got := final.Result(); got != want {
		t.Fatalf("resumed final result %+v, want %+v", got, want)
	}
}
