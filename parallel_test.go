package mobilegossip_test

// Public-API tests for the deterministic shard-parallel engine
// (Config.EngineWorkers) and the cache-aware Relabel knob: worker count
// must never change a result byte, sequential and parallel sessions must
// write interchangeable checkpoints, and relabeling must compose with
// sharding, regeneration and checkpoint/resume. The TestSharded* names
// double as the root-package workload `make race-concurrent` drives
// un-shortened under the race detector (n = 10k, every algorithm and
// every adversary strategy).

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"mobilegossip"
)

// workerTrace is a run summary plus its full per-round potential trace,
// so engine comparisons see every round boundary rather than only totals.
type workerTrace struct {
	mobilegossip.NopObserver
	res mobilegossip.Result
	phi []int
}

func (tr *workerTrace) EndRound(s mobilegossip.RoundStats) { tr.phi = append(tr.phi, s.Potential) }

func traceRun(t *testing.T, cfg mobilegossip.Config) workerTrace {
	t.Helper()
	var tr workerTrace
	cfg.Observers = []mobilegossip.Observer{&tr}
	res, err := mobilegossip.Run(cfg)
	if err != nil {
		t.Fatalf("Run (workers %d): %v", cfg.EngineWorkers, err)
	}
	tr.res = res
	return tr
}

func sameWorkerTrace(t *testing.T, label string, got, want workerTrace) {
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

// TestEngineWorkersDeterministic runs the full session matrix — every
// algorithm on static, τ-dynamic, mobility and adversarial topologies —
// at 1, 2, 3 and 8 shard workers and requires identical results and
// identical per-round potential traces throughout. Heavy (the matrix
// runs 4×), so -short skips it; `make race-concurrent` races it
// un-shortened.
func TestEngineWorkersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("4× full session matrix; raced un-shortened by make race-concurrent")
	}
	for _, cfg := range sessionMatrix() {
		cfg := cfg
		t.Run(cfgName(cfg), func(t *testing.T) {
			cfg.EngineWorkers = 1
			want := traceRun(t, cfg)
			for _, w := range []int{2, 3, 8} {
				cfg.EngineWorkers = w
				sameWorkerTrace(t, cfgName(cfg), traceRun(t, cfg), want)
			}
		})
	}
}

// shardedCheckpointConfigs is the cross-engine checkpoint grid: a static
// run, a mobility schedule, and an adaptive adversary, each big enough
// that 4 workers yield real (multi-node) shards.
func shardedCheckpointConfigs() []mobilegossip.Config {
	return []mobilegossip.Config{
		{Algorithm: mobilegossip.AlgSharedBit, N: 96, K: 8,
			Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4}, Seed: 61},
		{Algorithm: mobilegossip.AlgSimSharedBit, N: 80, K: 6,
			Topology: mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Speed: 0.03}, Tau: 1, Seed: 62},
		{Algorithm: mobilegossip.AlgSharedBit, N: 64, K: 6,
			Topology: mobilegossip.Topology{
				Kind: mobilegossip.RandomRegular, Degree: 4,
				Adversary: mobilegossip.AdvCutRich, AdvBudget: 20, AdvPeriod: 3,
			}, Tau: 1, Seed: 63},
	}
}

// TestShardedCheckpointInterchangeable checks the tentpole's checkpoint
// contract: a sequential and a 4-worker session write byte-identical
// checkpoints at the same round, and either checkpoint resumed under the
// other engine finishes byte-identically to the uninterrupted run.
func TestShardedCheckpointInterchangeable(t *testing.T) {
	for _, cfg := range shardedCheckpointConfigs() {
		cfg := cfg
		t.Run(cfgName(cfg), func(t *testing.T) {
			seq := cfg
			seq.EngineWorkers = 1
			want, err := mobilegossip.Run(seq)
			if err != nil {
				t.Fatal(err)
			}
			at := want.Rounds / 2

			snapshot := func(workers int) []byte {
				sim, err := mobilegossip.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sim.SetEngineWorkers(workers)
				for i := 0; i < at; i++ {
					if _, err := sim.Step(); err != nil {
						t.Fatalf("workers %d step %d: %v", workers, i, err)
					}
				}
				var buf bytes.Buffer
				if err := sim.Checkpoint(&buf); err != nil {
					t.Fatalf("workers %d checkpoint: %v", workers, err)
				}
				return buf.Bytes()
			}
			ckptSeq := snapshot(1)
			ckptPar := snapshot(4)
			if !bytes.Equal(ckptSeq, ckptPar) {
				t.Fatal("sequential and 4-worker checkpoints of the same round differ")
			}

			// Cross-resume: each engine finishes the other's checkpoint.
			for _, cross := range []struct {
				name    string
				ckpt    []byte
				workers int
			}{
				{"parallel_ckpt_sequential_finish", ckptPar, 1},
				{"sequential_ckpt_parallel_finish", ckptSeq, 4},
			} {
				resumed, err := mobilegossip.Resume(bytes.NewReader(cross.ckpt))
				if err != nil {
					t.Fatalf("%s: Resume: %v", cross.name, err)
				}
				resumed.SetEngineWorkers(cross.workers)
				got, err := resumed.Run(context.Background())
				if err != nil {
					t.Fatalf("%s: Run: %v", cross.name, err)
				}
				if got != want {
					t.Fatalf("%s diverged:\n got %+v\nwant %+v", cross.name, got, want)
				}
			}
		})
	}
}

// TestRelabelDeterministic checks the cache-aware relabeling pass: each
// kind solves, is reproducible, reports itself in the topology name, and
// composes with τ-regeneration and with the shard-parallel engine
// (relabeled shards must still reduce to the workers=1 bytes).
func TestRelabelDeterministic(t *testing.T) {
	for _, kind := range []mobilegossip.RelabelKind{mobilegossip.RelabelBFS, mobilegossip.RelabelDegree} {
		for _, tau := range []int{0, 2} {
			cfg := mobilegossip.Config{
				Algorithm: mobilegossip.AlgSharedBit, N: 64, K: 8,
				Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4, Relabel: kind},
				Tau:      tau, Seed: 71, EngineWorkers: 1,
			}
			name := kind.String()
			want := traceRun(t, cfg)
			if !want.res.Solved {
				t.Fatalf("relabel %s tau %d: not solved in %d rounds", name, tau, want.res.Rounds)
			}
			if !strings.Contains(want.res.Topology, "+"+name) {
				t.Fatalf("relabel %s: topology name %q does not report the relabeling", name, want.res.Topology)
			}
			sameWorkerTrace(t, "relabel "+name+" rerun", traceRun(t, cfg), want)
			cfg.EngineWorkers = 4
			sameWorkerTrace(t, "relabel "+name+" sharded", traceRun(t, cfg), want)
		}
	}
}

// TestRelabelRejectsMobility: relabeling renumbers a generated graph, so
// the mobility kinds (whose node identity is positional) must refuse it.
func TestRelabelRejectsMobility(t *testing.T) {
	_, err := mobilegossip.New(mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 32, K: 4,
		Topology: mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Speed: 0.03, Relabel: mobilegossip.RelabelBFS},
		Tau:      1, Seed: 5,
	})
	if err == nil || !strings.Contains(err.Error(), "Relabel") {
		t.Fatalf("mobility + Relabel: err = %v, want a Relabel rejection", err)
	}
}

// TestRelabelCheckpointRoundTrip: Relabel is part of the topology spec and
// must survive the checkpoint stream (format v3) — a resumed relabeled run
// finishes identically to the uninterrupted one.
func TestRelabelCheckpointRoundTrip(t *testing.T) {
	cfg := mobilegossip.Config{
		Algorithm: mobilegossip.AlgSimSharedBit, N: 48, K: 6,
		Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4, Relabel: mobilegossip.RelabelBFS},
		Tau:      2, Seed: 72,
	}
	want, err := mobilegossip.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := mobilegossip.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < want.Rounds/2; i++ {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := mobilegossip.Resume(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Config().Topology.Relabel; got != mobilegossip.RelabelBFS {
		t.Fatalf("resumed Relabel = %v, want bfs", got)
	}
	got, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("relabeled resume diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestShardedAllStrategiesN10k drives the shard-parallel engine at
// n = 10 000 — real multi-thousand-node shards — across every algorithm
// and every adversary strategy, bounded to a fixed round budget, and
// requires the 7-worker trace to match the sequential engine round for
// round. `make race-concurrent` runs this un-shortened under -race, so
// the sharded goroutine structure is always raced at scale; the -short
// suites skip it.
func TestShardedAllStrategiesN10k(t *testing.T) {
	if testing.Short() {
		t.Skip("n=10k × all strategies; raced un-shortened by make race-concurrent")
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
			sameWorkerTrace(t, cfgName(cfg), traceRun(t, cfg), want)
		})
	}
}
