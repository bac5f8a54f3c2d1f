package main

import (
	"fmt"
	"hash/fnv"
	"strings"

	"mobilegossip"
	"mobilegossip/client"
)

// The five workloads, each defined once as a Go value. The harness renders
// the value to scenario-v1 YAML (for gossipsim) or a client.CreateRequest
// (for gossipd) and lowers the same value to mobilegossip.Config for the
// traced pass, so the program only ever sees generated inputs.
//
// Sizes are fixed per scale; -seed is mixed into every spec seed. README.md
// holds the reason for each workload and for each departure from plain
// "run to completion".

// scenario is one scenario-v1 document.
type scenario struct {
	Name      string
	Algorithm mobilegossip.Algorithm
	N, K, Tau int
	MaxRounds int
	Topology  mobilegossip.Topology
	Phases    []phase
	Grid      *grid
	Expect    expect
	Seed      uint64 // set by generate
}

// phase is one timeline segment. The first runs on the scenario's own
// topology; every later one rebinds to its Topology.
type phase struct {
	Name     string
	Rounds   int // 0 on the last phase: to completion
	Topology mobilegossip.Topology
}

type grid struct {
	N, K   []int
	Trials int
}

// expect is the subset of the expect block the workloads assert.
type expect struct {
	Solved      bool
	MinRounds   int
	MinCoverage float64
}

// daemonLoad shapes the closed loop driven against a real gossipd.
type daemonLoad struct {
	Sessions      int // sessions fully processed per pass
	Seeds         int // distinct spec seeds the sessions cycle through
	Clients       int // closed-loop client goroutines, one connection each
	Window        int // sessions a client holds open at once
	PartialRounds int // rounds run when a session is opened
	MaxLive       int // gossipd -maxlive: below Clients×Window, so the LRU evicts
	Slice         int // gossipd -slice
	Warmup        int // sessions run during set-up
}

// workload is one named benchmark input.
type workload struct {
	Name, Why string
	// Specs are the gossipsim invocations, run back to back.
	Specs []scenario
	// EngineWorkers is passed as -engineworkers (0 omits the flag).
	EngineWorkers int
	// CheckpointAt > 0 adds -events and -checkpoint at that round to the
	// run, and a second leg that resumes the checkpoint.
	CheckpointAt int
	// Daemon, when set, drives Specs[0] through gossipd instead.
	Daemon *daemonLoad
	// SpeedupRounds > 0 measures mtm.shard_speedup over that many rounds.
	SpeedupRounds int
}

// workloads returns the five workloads at full or smoke scale. Smoke
// divides the sizes by about 20 and exists for the test in bench_test.go.
func workloads(smoke bool) []workload {
	sz := func(full, small int) int {
		if smoke {
			return small
		}
		return full
	}
	regular := func(d int) mobilegossip.Topology {
		return mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: d}
	}
	roam := mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Speed: 0.01}
	jammed := roam
	jammed.Adversary, jammed.AdvBudget = mobilegossip.AdvBipartition, sz(10000, 500)

	sweepN, sweepK := []int{sz(256, 16), sz(512, 32)}, []int{sz(8, 2), sz(16, 4)}
	sweep := func(alg mobilegossip.Algorithm, topo mobilegossip.Topology, tau int) scenario {
		return scenario{
			Name: "sweep-" + alg.String(), Algorithm: alg, N: sweepN[0], K: sweepK[0], Tau: tau,
			Topology: topo, Grid: &grid{N: sweepN, K: sweepK, Trials: 4},
			Expect: expect{Solved: true},
		}
	}
	// Where the completion round has a heavy tail over seeds, the run gets
	// a fixed round budget below the earliest completion instead, so every
	// seed does the same amount of work (README.md has the measurements).
	// CrowdedBin completes after 14k to 393k rounds on these points; more
	// trials keep its share of the sweep.
	crowdedCap := sz(12000, 600)
	// mobile-churn's last stragglers cross the adversary's cut after 68 to
	// 134 rounds; at the budget 73–95% of the (node, token) pairs are known
	// (the smaller smoke crowd mixes more slowly).
	mobileCap, mobileCkpt, mobileCoverage := sz(60, 25), sz(50, 20), 0.5
	if smoke {
		mobileCoverage = 0.1
	}
	crowded := scenario{
		Name: "sweep-crowdedbin", Algorithm: mobilegossip.AlgCrowdedBin,
		N: sz(128, 16), K: sz(4, 2), MaxRounds: crowdedCap, Topology: regular(4),
		Grid:   &grid{N: []int{sz(128, 16), sz(256, 32)}, K: []int{sz(4, 2), sz(8, 4)}, Trials: sz(16, 4)},
		Expect: expect{MinRounds: crowdedCap},
	}

	return []workload{{
		Name: "dense-exchange",
		Why:  "exchange-bound: one long sharedbit run, n=10000 k=64 on a static 4-regular graph, where Transfer and fingerprint primes do ~89% of the work",
		Specs: []scenario{{
			Name: "dense-exchange", Algorithm: mobilegossip.AlgSharedBit,
			N: sz(10000, 500), K: 64, Topology: regular(4), Expect: expect{Solved: true},
		}},
		EngineWorkers: 1,
		SpeedupRounds: sz(60, 20),
	}, {
		Name: "wide-k",
		Why:  "same exchange layer with long token sets, n=1024 k=384 on a static ring: the tag and advertise scan of the proposal phase dominates, so a Transfer shortcut that costs wide sets shows here",
		// A ring, because the proposal phase dominates only where few
		// connections form per round; see README.md.
		Specs: []scenario{{
			Name: "wide-k", Algorithm: mobilegossip.AlgSharedBit,
			N: sz(1024, 64), K: sz(384, 24), Topology: mobilegossip.Topology{Kind: mobilegossip.Cycle},
			Expect: expect{Solved: true},
		}},
		EngineWorkers: 1,
	}, {
		Name: "mobile-churn",
		Why:  "churn-bound: 60 rounds of n=50000 waypoint walkers at tau=1, a bipartition adversary from round 31; the only sharded-engine run, with Rebind, the JSONL sink, a checkpoint write and a resume",
		Specs: []scenario{{
			Name: "mobile-churn", Algorithm: mobilegossip.AlgSharedBit,
			N: sz(50000, 2500), K: 4, Tau: 1, MaxRounds: mobileCap, Topology: roam,
			Phases: []phase{{Name: "roam", Rounds: sz(30, 10)}, {Name: "jammed", Topology: jammed}},
			Expect: expect{MinRounds: mobileCap, MinCoverage: mobileCoverage},
		}},
		EngineWorkers: 2,
		CheckpointAt:  mobileCkpt,
	}, {
		Name: "sweep-grid",
		Why:  "many short session lifecycles through the sweep pool, one grid per algorithm: New and topology build dominate, and crowdedbin adds ~770k near-empty rounds bound by per-round fixed cost",
		Specs: []scenario{
			sweep(mobilegossip.AlgBlindMatch, regular(4), 1),
			sweep(mobilegossip.AlgSharedBit, mobilegossip.Topology{Kind: mobilegossip.GNP}, 1),
			sweep(mobilegossip.AlgSimSharedBit, regular(6), 2),
			crowded,
		},
	}, {
		Name: "daemon-sessions",
		Why:  "the sweep's kind of simulation through client, httpserve and the daemon scheduler with LRU evict/revive on the path; the local cost of the same sessions isolates the service layer",
		Specs: []scenario{{
			Name: "daemon-sessions", Algorithm: mobilegossip.AlgSharedBit,
			N: 64, K: 8, Tau: 1, Topology: regular(4),
		}},
		Daemon: &daemonLoad{
			Sessions: sz(1200, 48), Seeds: 16, Clients: 2, Window: 12,
			PartialRounds: 10, MaxLive: 8, Slice: 16, Warmup: sz(20, 4),
		},
	}}
}

// mixSeed derives a spec seed from the benchmark seed, the workload or
// spec name, and a counter (splitmix64 over an FNV-1a hash of the name).
func mixSeed(seed uint64, name string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	z := seed + h.Sum64() + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// generate fixes every spec seed of w from the benchmark seed.
//
// A static single run draws one graph for the whole run, and on about 31%
// of seeds the degree-4 pairing generator exhausts its attempts and hands
// back a circulant ring, which takes 2–40× the rounds (measured: 8216
// against 217–227 on dense-exchange). The workload is defined on a random
// regular graph, so such seeds are skipped: the spec seed is the first
// candidate whose session reports a genuinely regular topology.
func generate(w workload, seed uint64) (workload, error) {
	specs := make([]scenario, len(w.Specs))
	for i, s := range w.Specs {
		s.Seed = mixSeed(seed, s.Name, 0)
		if s.Tau == 0 && s.Grid == nil && s.Topology.Kind == mobilegossip.RandomRegular {
			found := false
			for try := 0; try < 64 && !found; try++ {
				s.Seed = mixSeed(seed, s.Name, try)
				sim, err := mobilegossip.New(s.config(s.N, s.K, s.Seed))
				if err != nil {
					return w, fmt.Errorf("%s: %w", s.Name, err)
				}
				found = strings.Contains(sim.Result().Topology, "regular(")
			}
			if !found {
				return w, fmt.Errorf("%s: no candidate seed gave a regular graph", s.Name)
			}
		}
		specs[i] = s
	}
	w.Specs = specs
	return w, nil
}

// config lowers the scenario to the session API's Config for one (n, k)
// point at the given run seed.
func (s scenario) config(n, k int, seed uint64) mobilegossip.Config {
	return mobilegossip.Config{
		Algorithm: s.Algorithm, N: n, K: k, Tau: s.Tau, MaxRounds: s.MaxRounds,
		Topology: s.Topology, Seed: seed,
	}
}

// createRequest lowers the scenario to the gossipd wire.
func (s scenario) createRequest(seed uint64) client.CreateRequest {
	return client.CreateRequest{
		Algorithm: s.Algorithm.String(), N: s.N, K: s.K, Tau: s.Tau, MaxRounds: s.MaxRounds,
		Topology: topologySpec(s.Topology), Seed: seed, RecordEvents: true,
	}
}

// topologySpec maps the topology knobs the workloads use onto the wire
// names shared by scenario files and create requests.
func topologySpec(t mobilegossip.Topology) client.TopologySpec {
	spec := client.TopologySpec{Kind: t.Kind.String(), Degree: t.Degree, Speed: t.Speed, AdvBudget: t.AdvBudget}
	if t.Adversary != mobilegossip.AdvNone {
		spec.Adversary = t.Adversary.String()
	}
	back := mobilegossip.Topology{Kind: t.Kind, Degree: t.Degree, Speed: t.Speed,
		Adversary: t.Adversary, AdvBudget: t.AdvBudget}
	if back != t {
		panic(fmt.Sprintf("bench: topology %+v sets a knob topologySpec does not render", t))
	}
	return spec
}

// yaml renders the scenario as a scenario-v1 file.
func (s scenario) yaml() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Generated by the benchmark harness; do not edit.\n")
	fmt.Fprintf(&b, "version: 1\nname: %s\nseed: %d\nalgorithm: %s\nn: %d\nk: %d\ntau: %d\n",
		s.Name, s.Seed, s.Algorithm, s.N, s.K, s.Tau)
	if s.MaxRounds > 0 {
		fmt.Fprintf(&b, "max_rounds: %d\n", s.MaxRounds)
	}
	writeTopology(&b, "", s.Topology)
	if len(s.Phases) > 0 {
		b.WriteString("phases:\n")
		for i, ph := range s.Phases {
			fmt.Fprintf(&b, "  - name: %s\n    rounds: %d\n", ph.Name, ph.Rounds)
			if i > 0 {
				writeTopology(&b, "    ", ph.Topology)
			}
		}
	}
	if g := s.Grid; g != nil {
		fmt.Fprintf(&b, "grid:\n  n: %s\n  k: %s\n  trials: %d\n", flowList(g.N), flowList(g.K), g.Trials)
	}
	b.WriteString("expect:\n")
	if s.Expect.Solved {
		b.WriteString("  solved: true\n  max_final_potential: 0\n")
	}
	if s.Expect.MinRounds > 0 {
		fmt.Fprintf(&b, "  min_rounds: %d\n", s.Expect.MinRounds)
	}
	if s.Expect.MinCoverage > 0 {
		fmt.Fprintf(&b, "  min_coverage: %g\n", s.Expect.MinCoverage)
	}
	return b.String()
}

func writeTopology(b *strings.Builder, indent string, t mobilegossip.Topology) {
	spec := topologySpec(t)
	fmt.Fprintf(b, "%stopology:\n%s  kind: %s\n", indent, indent, spec.Kind)
	if spec.Degree != 0 {
		fmt.Fprintf(b, "%s  degree: %d\n", indent, spec.Degree)
	}
	if spec.Speed != 0 {
		fmt.Fprintf(b, "%s  speed: %g\n", indent, spec.Speed)
	}
	if spec.Adversary != "" {
		fmt.Fprintf(b, "%s  adversary: %s\n%s  adv_budget: %d\n", indent, spec.Adversary, indent, spec.AdvBudget)
	}
}

func flowList(v []int) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprint(x)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
