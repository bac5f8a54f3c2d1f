package mtm

import (
	"sort"
	"testing"

	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/prand"
	"mobilegossip/internal/profile"
)

// runProfiled mirrors runSharded with a timing recorder attached: the
// determinism oracle (results, per-node values, RNG states, matchings)
// must be blind to whether profiling ran.
func runProfiled(t *testing.T, mkDyn func() dyngraph.Dynamic, n int, cfg Config, rec *profile.Recorder) recordedRun {
	t.Helper()
	p := newMinSpread(n)
	p.recordPairs = true
	var out recordedRun
	roundStart := 0
	cfg.OnRound = func(int) {
		seg := append([][2]int(nil), p.sawConnections[roundStart:]...)
		// A sharded exchange records pairs in scheduling order;
		// canonicalize by responder like runSharded does.
		sort.Slice(seg, func(i, j int) bool { return seg[i][1] < seg[j][1] })
		out.rounds = append(out.rounds, seg)
		roundStart = len(p.sawConnections)
	}
	e := NewEngine(mkDyn(), p, cfg)
	e.SetProfiler(rec)
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

// TestProfiledIdenticalToUnprofiled is the read-only-sidecar contract:
// attaching a recorder must not change one byte of the execution, on the
// sequential path and at several shard widths.
func TestProfiledIdenticalToUnprofiled(t *testing.T) {
	mk := func() dyngraph.Dynamic { return dyngraph.RotatingRegular(36, 4, 3, 17) }
	for _, w := range []int{1, 2, 7} {
		cfg := Config{Seed: 29, MaxRounds: 50000, Workers: w}
		plain := runProfiled(t, mk, 36, cfg, nil)
		rec := profile.NewRecorder()
		profiled := runProfiled(t, mk, 36, cfg, rec)
		sameRun(t, "profiled", plain, profiled)
		if rec.Rounds() != int64(plain.res.Rounds) {
			t.Fatalf("workers=%d: recorder saw %d rounds, run had %d",
				w, rec.Rounds(), plain.res.Rounds)
		}
	}
}

// TestProfilerTogglesMidRun flips the recorder (and worker count) on and
// off at round boundaries; like SetWorkers, SetProfiler must affect
// wall-clock only.
func TestProfilerTogglesMidRun(t *testing.T) {
	mk := func() dyngraph.Dynamic { return dyngraph.RotatingRegular(40, 4, 3, 17) }
	cfg := Config{Seed: 23, MaxRounds: 50000}
	plain := runProfiled(t, mk, 40, cfg, nil)

	p := newMinSpread(40)
	rec := profile.NewRecorder()
	e := NewEngine(mk(), p, Config{Seed: 23, MaxRounds: 50000})
	for i := 0; !e.Finished(); i++ {
		e.SetWorkers([]int{1, 4, 2, 7}[i%4])
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

// TestProfileRecordsSequential checks the shape of what a sequential run
// records: every round present, phases non-negative and bounded by the
// round total, no shard or barrier data.
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
		t.Fatalf("sequential round recorded reduction time %d", last.PhaseNs[profile.PhaseReduction])
	}
	if last.MaxShardNs != 0 || last.BarrierNs != 0 || last.ImbalanceMilli() != 0 {
		t.Fatalf("sequential round recorded shard data: %+v", last)
	}
	if rec.Imbalance().Count() != 0 || rec.BarrierWait().Count() != 0 {
		t.Fatal("sequential run fed the shard histograms")
	}
	if rec.RoundLatency().Count() != int64(res.Rounds) {
		t.Fatalf("round latency count %d != %d", rec.RoundLatency().Count(), res.Rounds)
	}
}

// TestProfileRecordsSharded checks that sharded rounds carry per-shard
// compute, barrier and imbalance data consistent with the worker count.
func TestProfileRecordsSharded(t *testing.T) {
	rec := profile.NewRecorder()
	res := runProfiled(t, func() dyngraph.Dynamic {
		return dyngraph.NewStatic(graph.RandomRegular(200, 6, prand.New(7)))
	}, 200, Config{Seed: 5, MaxRounds: 50000, Workers: 4}, rec).res

	if rec.Rounds() != int64(res.Rounds) {
		t.Fatalf("recorded %d rounds, run had %d", rec.Rounds(), res.Rounds)
	}
	last := rec.Last()
	if last.Workers != 4 {
		t.Fatalf("Last workers = %d, want 4", last.Workers)
	}
	if last.MaxShardNs < last.MinShardNs || last.MaxShardNs < last.MeanShardNs {
		t.Fatalf("shard summary inconsistent: %+v", last)
	}
	if last.MaxShardNs > 0 && last.ImbalanceMilli() < 1000 {
		t.Fatalf("imbalance %d below 1000 (max/mean cannot be under 1)", last.ImbalanceMilli())
	}
	if rec.Imbalance().Count() != int64(res.Rounds) {
		t.Fatalf("imbalance count %d != rounds %d", rec.Imbalance().Count(), res.Rounds)
	}
	if rec.BarrierWait().Count() != int64(res.Rounds) {
		t.Fatalf("barrier count %d != rounds %d", rec.BarrierWait().Count(), res.Rounds)
	}
}

// TestProfiledStepAllocs pins the overhead contract: a one-range round
// (Workers: 1) takes no goroutine and no closure, so Step stays at
// 0 allocs/op — with profiling off and with it ON.
func TestProfiledStepAllocs(t *testing.T) {
	for _, profiled := range []bool{false, true} {
		dyn := dyngraph.NewStatic(graph.Star(256))
		e := NewEngine(dyn, &hubFlood{}, Config{Seed: 1, MaxRounds: 1 << 30, Workers: 1})
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
			t.Fatalf("one-range Step (profiled=%v) allocated %.1f/op, want 0", profiled, allocs)
		}
	}
}
