package mtm

import (
	"testing"

	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/prand"
	"mobilegossip/internal/profile"
)

// recordedRun is everything the determinism oracle compares: the run
// summary, the protocol's final per-node values, every node's final RNG
// state (catching divergence in randomness consumption even when outcomes
// coincide), and the per-round connection matchings.
type recordedRun struct {
	res    Result
	vals   []int
	rngs   [][4]uint64
	rounds [][][2]int
}

// runProfiled drives one engine to completion with pair recording on and
// rec (nil = off) attached: the oracle must be blind to whether profiling
// ran.
func runProfiled(t *testing.T, mkDyn func() dyngraph.Dynamic, n int, cfg Config, rec *profile.Recorder) recordedRun {
	t.Helper()
	p := newMinSpread(n)
	p.recordPairs = true
	var out recordedRun
	roundStart := 0
	e := NewEngine(mkDyn(), p, cfg)
	e.SetProfiler(rec)
	for !e.Finished() {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
		out.rounds = append(out.rounds, append([][2]int(nil), p.sawConnections[roundStart:]...))
		roundStart = len(p.sawConnections)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	out.res = res
	out.vals = p.vals
	for _, r := range e.rngs {
		out.rngs = append(out.rngs, r.State())
	}
	return out
}

func sameRun(t *testing.T, label string, want, got recordedRun) {
	t.Helper()
	if want.res != got.res {
		t.Fatalf("%s: result %+v != %+v", label, got.res, want.res)
	}
	for u := range want.vals {
		if want.vals[u] != got.vals[u] {
			t.Fatalf("%s: node %d value %d != %d", label, u, got.vals[u], want.vals[u])
		}
	}
	for u := range want.rngs {
		if want.rngs[u] != got.rngs[u] {
			t.Fatalf("%s: node %d RNG state diverged", label, u)
		}
	}
	if len(want.rounds) != len(got.rounds) {
		t.Fatalf("%s: %d rounds != %d", label, len(got.rounds), len(want.rounds))
	}
	for r := range want.rounds {
		a, b := want.rounds[r], got.rounds[r]
		if len(a) != len(b) {
			t.Fatalf("%s: round %d matching size %d != %d", label, r+1, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: round %d pair %d: %v != %v", label, r+1, i, b[i], a[i])
			}
		}
	}
}

// TestProfiledIdenticalToUnprofiled is the read-only-sidecar contract:
// attaching a recorder must not change one byte of the execution.
func TestProfiledIdenticalToUnprofiled(t *testing.T) {
	mk := func() dyngraph.Dynamic { return dyngraph.RotatingRegular(36, 4, 3, 17) }
	cfg := Config{Seed: 29, MaxRounds: 50000}
	plain := runProfiled(t, mk, 36, cfg, nil)
	rec := profile.NewRecorder()
	profiled := runProfiled(t, mk, 36, cfg, rec)
	sameRun(t, "profiled", plain, profiled)
	if rec.Rounds() != int64(plain.res.Rounds) {
		t.Fatalf("recorder saw %d rounds, run had %d", rec.Rounds(), plain.res.Rounds)
	}
}

// TestProfilerTogglesMidRun flips the recorder on and off at round
// boundaries; SetProfiler must affect wall-clock only.
func TestProfilerTogglesMidRun(t *testing.T) {
	mk := func() dyngraph.Dynamic { return dyngraph.RotatingRegular(40, 4, 3, 17) }
	cfg := Config{Seed: 23, MaxRounds: 50000}
	plain := runProfiled(t, mk, 40, cfg, nil)

	p := newMinSpread(40)
	rec := profile.NewRecorder()
	e := NewEngine(mk(), p, Config{Seed: 23, MaxRounds: 50000})
	for i := 0; !e.Finished(); i++ {
		if i%3 == 0 {
			e.SetProfiler(nil)
		} else {
			e.SetProfiler(rec)
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if res := e.Result(); res != plain.res {
		t.Fatalf("toggling profiler diverged: %+v != %+v", res, plain.res)
	}
	for u, v := range p.vals {
		if v != plain.vals[u] {
			t.Fatalf("node %d value %d != plain %d", u, v, plain.vals[u])
		}
	}
	if rec.Rounds() == 0 || rec.Rounds() >= int64(plain.res.Rounds) {
		t.Fatalf("recorder saw %d rounds, want within (0, %d)", rec.Rounds(), plain.res.Rounds)
	}
}

// TestProfileRecordsSequential checks the shape of what a run records:
// every round present, phases non-negative and bounded by the round total,
// one worker and no shard, reduction or barrier data.
func TestProfileRecordsSequential(t *testing.T) {
	rec := profile.NewRecorder()
	res := runProfiled(t, func() dyngraph.Dynamic {
		return dyngraph.NewStatic(graph.RandomRegular(50, 4, prand.New(7)))
	}, 50, Config{Seed: 5, MaxRounds: 50000}, rec).res

	if rec.Rounds() != int64(res.Rounds) {
		t.Fatalf("recorded %d rounds, run had %d", rec.Rounds(), res.Rounds)
	}
	last := rec.Last()
	if last.Round != res.Rounds || last.Workers != 1 {
		t.Fatalf("Last = %+v, want round %d workers 1", last, res.Rounds)
	}
	var phases int64
	for p := profile.Phase(0); p < profile.NumPhases; p++ {
		ns := last.PhaseNs[p]
		if ns < 0 {
			t.Fatalf("phase %v negative: %d", p, ns)
		}
		phases += ns
	}
	if phases > last.TotalNs {
		t.Fatalf("phase sum %d exceeds round total %d", phases, last.TotalNs)
	}
	if last.PhaseNs[profile.PhaseReduction] != 0 {
		t.Fatalf("round recorded reduction time %d", last.PhaseNs[profile.PhaseReduction])
	}
	if last.MaxShardNs != 0 || last.BarrierNs != 0 || last.ImbalanceMilli() != 0 {
		t.Fatalf("round recorded shard data: %+v", last)
	}
	if rec.RoundLatency().Count() != int64(res.Rounds) {
		t.Fatalf("round latency count %d != %d", rec.RoundLatency().Count(), res.Rounds)
	}
}

// TestProfiledStepAllocs pins the overhead contract: Step stays at
// 0 allocs/op — with profiling off and with it ON.
func TestProfiledStepAllocs(t *testing.T) {
	for _, profiled := range []bool{false, true} {
		dyn := dyngraph.NewStatic(graph.Star(256))
		e := NewEngine(dyn, &hubFlood{}, Config{Seed: 1, MaxRounds: 1 << 30})
		if profiled {
			e.SetProfiler(profile.NewRecorder())
		}
		for i := 0; i < 8; i++ { // settle scratch growth
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("Step (profiled=%v) allocated %.1f/op, want 0", profiled, allocs)
		}
	}
}
