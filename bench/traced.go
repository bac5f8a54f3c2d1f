package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"mobilegossip"
)

// The traced pass re-drives a workload's generated inputs in-process
// through the public session API, with a span around every call into a
// layer and Config.Profile on to read the engine's phase timings. It adds
// no instrumentation inside the program.

// stepStats accumulates what stepping sessions measured.
type stepStats struct {
	steps      []time.Duration // wall of every Step call
	roundNs    int64           // profiler: Σ round time
	phaseNs    [4]int64        // profiler: Σ per phase, indexed by ProfilePhase
	barrierNs  int64
	nodeRounds int64 // Σ over rounds of n
	// split > 0 divides churn time at that round: mobility before and at
	// it, adversary after it.
	split       int
	churnNs     [2]int64
	churnRounds [2]int64
	mallocs     uint64
	allocBytes  uint64
	imbalance   []int64 // per sharded round, thousandths
}

// stepTo steps sim to the target round (0: to completion). Step spans go
// to tr under parent; a nil tr still collects the durations.
func (st *stepStats) stepTo(sim *mobilegossip.Simulation, target int, tr *tracer, parent int, session string) error {
	objects, bytes := heapAllocs()
	prof := sim.Profiler()
	for !sim.Done() && (target <= 0 || sim.Round() < target) {
		sp := tr.begin("session.step", parent, session)
		start := time.Now()
		_, err := sim.Step()
		st.steps = append(st.steps, time.Since(start))
		tr.end(sp)
		if err != nil {
			if errors.Is(err, mobilegossip.ErrSimulationDone) {
				break
			}
			return err
		}
		rp := prof.Last()
		st.roundNs += rp.TotalNs
		for ph := range st.phaseNs {
			st.phaseNs[ph] += rp.PhaseNs[ph]
		}
		st.barrierNs += rp.BarrierNs
		st.nodeRounds += int64(sim.N())
		seg := 0
		if st.split > 0 && rp.Round > st.split {
			seg = 1
		}
		st.churnNs[seg] += rp.PhaseNs[mobilegossip.PhaseChurn]
		st.churnRounds[seg]++
		if rp.Workers > 1 {
			st.imbalance = append(st.imbalance, rp.ImbalanceMilli())
		}
	}
	objectsNow, bytesNow := heapAllocs()
	st.mallocs += objectsNow - objects
	st.allocBytes += bytesNow - bytes
	return nil
}

// heapAllocs reads the cumulative heap allocation counters. runtime/metrics
// does not stop the world, which runtime.ReadMemStats does for milliseconds
// of an otherwise span-covered pass.
func heapAllocs() (objects, bytes uint64) {
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(samples)
	return samples[0].Value.Uint64(), samples[1].Value.Uint64()
}

// totals sums run results for the core.* counts.
type totals struct{ connections, proposals, tokensMoved, controlBits, edgesChanged int64 }

func (t *totals) add(r mobilegossip.Result) {
	t.connections += r.Connections
	t.proposals += r.Proposals
	t.tokensMoved += r.TokensMoved
	t.controlBits += r.ControlBits
	t.edgesChanged += r.EdgesAdded + r.EdgesRemoved
}

func lineOf(r mobilegossip.Result) string {
	return resultLine(r.Rounds, r.Connections, r.Proposals, r.ControlBits, r.TokensMoved)
}

// traced is what one traced pass of a local workload produced.
type traced struct {
	tr      *tracer
	st      stepStats
	tot     totals
	results []string // canonical lines, comparable with pass.Results
	cellSum time.Duration
	layers  map[string]float64
}

// traceSingle drives a single-run workload the way `gossipsim run` does:
// new session, phases with Rebind, the mid-run checkpoint and the JSONL
// sink where the workload has them, then the resume leg.
func traceSingle(w workload, f files, t *traced) error {
	s := w.Specs[0]
	tr, L := t.tr, t.layers
	if len(s.Phases) > 0 {
		t.st.split = s.Phases[0].Rounds
	}
	root := tr.begin("cli.run", 0, s.Name)
	cfg := s.config(s.N, s.K, s.Seed)
	cfg.EngineWorkers, cfg.Profile = w.EngineWorkers, true
	sp := tr.begin("session.new", root, s.Name)
	sim, err := mobilegossip.New(cfg)
	L["session.new_ms"] = ms(tr.end(sp))
	if err != nil {
		return err
	}

	var sink *mobilegossip.EventJSONLSink
	var eventsFile *os.File
	ckptPath, eventsPath := f.ckpt()+".traced", f.events()+".traced"
	if w.CheckpointAt > 0 {
		// The queue size gossipsim gives its -events sink.
		sp := tr.begin("events.sink_open", root, s.Name)
		if eventsFile, err = os.Create(eventsPath); err != nil {
			return err
		}
		defer eventsFile.Close()
		sink = mobilegossip.NewJSONLSink(sim.Bus(), eventsFile, mobilegossip.EventFilter{}, 1<<16)
		L["events.sink_open_ms"] = ms(tr.end(sp))
	}
	// advance steps to target, taking the checkpoint on the way.
	advance := func(target int) error {
		if at := w.CheckpointAt; at > sim.Round() && (target == 0 || at <= target) {
			if err := t.st.stepTo(sim, at, tr, root, s.Name); err != nil {
				return err
			}
			if sim.Round() == at {
				sp := tr.begin("session.checkpoint", root, s.Name)
				err := sim.CheckpointFile(ckptPath)
				L["session.ckpt_write_ms"] = ms(tr.end(sp))
				if err != nil {
					return err
				}
			}
		}
		return t.st.stepTo(sim, target, tr, root, s.Name)
	}
	phases := s.Phases
	if len(phases) == 0 {
		phases = []phase{{}} // one phase, to completion
	}
	boundary := 0
	for i, ph := range phases {
		if i > 0 && !sim.Done() {
			sp := tr.begin("session.rebind", root, s.Name)
			err := sim.Rebind(ph.Topology, s.Tau)
			L["session.rebind_ms"] += ms(tr.end(sp))
			if err != nil {
				return err
			}
		}
		boundary += ph.Rounds
		if ph.Rounds == 0 {
			boundary = 0
		}
		if err := advance(boundary); err != nil {
			return err
		}
	}
	if sink != nil {
		sp := tr.begin("events.sink_close", root, s.Name)
		err = sink.Close()
		L["events.sink_close_ms"] = ms(tr.end(sp))
		L["events.dropped"] = float64(sink.Dropped())
		if err != nil {
			return err
		}
	}
	tr.end(root)
	res := sim.Result()
	t.tot.add(res)
	t.results = []string{lineOf(res)}

	if w.CheckpointAt > 0 {
		L["session.ckpt_mb"] = mb(fileSize(ckptPath))
		L["events.mb"] = mb(fileSize(eventsPath))
		log, err := decodeEventsFile(eventsPath)
		if err != nil {
			return err
		}
		L["events.lines"] = float64(log.Lines)

		// The resume leg is a fresh process under gossipsim: drop the first
		// leg's session before timing it.
		sim = nil
		runtime.GC()
		root := tr.begin("cli.run", 0, s.Name)
		sp := tr.begin("session.resume", root, s.Name)
		resumed, err := mobilegossip.ResumeFile(ckptPath)
		L["session.resume_ms"] = ms(tr.end(sp))
		if err != nil {
			return err
		}
		resumed.EnableProfiling()
		if err := t.st.stepTo(resumed, 0, tr, root, s.Name); err != nil {
			return err
		}
		tr.end(root)
		if got := lineOf(resumed.Result()); got != t.results[0] {
			return fmt.Errorf("resumed session finished with %s, the uninterrupted one with %s", got, t.results[0])
		}
	}
	return nil
}

// traceSweep runs every cell of every grid sequentially, seeded as the
// sweep pool seeds them, and rebuilds the rows of the sweep tables.
func traceSweep(w workload, t *traced) error {
	tr, L := t.tr, t.layers
	var cells []time.Duration
	var newDur time.Duration
	for _, s := range w.Specs {
		root := tr.begin("cli.run", 0, s.Name)
		var specCells time.Duration
		point := 0
		for _, n := range s.Grid.N {
			for _, k := range s.Grid.K {
				var sumR, sumC float64
				solved, minR, maxR := 0, math.MaxInt, 0
				for trial := 0; trial < s.Grid.Trials; trial++ {
					id := fmt.Sprintf("%s/p%dt%d", s.Name, point, trial)
					cfg := s.config(n, k, mobilegossip.SweepSeed(s.Seed, point*s.Grid.Trials+trial))
					cfg.EngineWorkers, cfg.Profile = 1, true // as RunSweep runs its cells
					cell := tr.begin("sweep.cell", root, id)
					sp := tr.begin("session.new", cell, id)
					sim, err := mobilegossip.New(cfg)
					newDur += tr.end(sp)
					if err == nil {
						err = t.st.stepTo(sim, 0, nil, 0, id)
					}
					d := tr.end(cell)
					if err != nil {
						return fmt.Errorf("%s: %w", id, err)
					}
					cells = append(cells, d)
					specCells += d
					res := sim.Result()
					t.tot.add(res)
					if res.Solved {
						solved++
					}
					sumR += float64(res.Rounds)
					sumC += float64(res.Connections)
					minR, maxR = min(minR, res.Rounds), max(maxR, res.Rounds)
				}
				tf := float64(s.Grid.Trials)
				t.results = append(t.results, gridLine(n, k, s.Grid.Trials, solved, sumR/tf, minR, maxR, sumC/tf))
				point++
			}
		}
		tr.end(root)
		L["runner.cells_s_"+s.Algorithm.String()] = specCells.Seconds()
	}
	for _, d := range cells {
		t.cellSum += d
	}
	L["runner.cells"] = float64(len(cells))
	L["runner.rounds_total"] = float64(len(t.st.steps))
	L["runner.cell_p50_ms"] = ms(quantile(cells, 0.50))
	L["runner.cell_p95_ms"] = ms(quantile(cells, 0.95))
	L["runner.new_share"] = ratio(newDur.Seconds(), t.cellSum.Seconds())
	L["session.new_ms"] = ms(newDur)
	return nil
}

// traceLocal is the traced pass of a local workload, checked against the
// untraced pass base and turned into the per-layer metrics.
func traceLocal(w workload, f files, base pass) (map[string]float64, *tracer, checks, error) {
	t := &traced{tr: newTracer(), layers: make(map[string]float64)}
	L := t.layers
	var err error
	if w.Specs[0].Grid != nil {
		err = traceSweep(w, t)
	} else {
		err = traceSingle(w, f, t)
	}
	if err != nil {
		return nil, nil, checks{}, err
	}
	var ck checks
	ck.ok(slices.Equal(t.results, base.Results), "the traced pass got %q, gossipsim printed %q", t.results, base.Results)

	var tracedWall time.Duration
	for _, d := range t.tr.named("cli.run") {
		tracedWall += d
	}
	st, tot := &t.st, t.tot
	var stepSum time.Duration
	for _, d := range st.steps {
		stepSum += d
	}
	rounds := float64(len(st.steps))
	L["session.steps"] = rounds
	L["session.step_p50_ms"] = ms(quantile(st.steps, 0.50))
	L["session.step_p99_ms"] = ms(quantile(st.steps, 0.99))
	L["session.step_overhead_share"] = ratio(float64(int64(stepSum)-st.roundNs), float64(stepSum))
	L["session.allocs_per_round"] = ratio(float64(st.mallocs), rounds)
	L["session.alloc_mb"] = mb(int64(st.allocBytes))
	var phases int64
	for i, name := range []string{"churn", "proposal", "exchange", "reduction"} {
		L["mtm."+name+"_s"] = seconds(st.phaseNs[i])
		phases += st.phaseNs[i]
	}
	L["mtm.unattributed_s"] = seconds(st.roundNs - phases)
	L["mtm.ns_per_node_round"] = ratio(float64(st.roundNs), float64(st.nodeRounds))
	L["mtm.accept_ratio"] = ratio(float64(tot.connections), float64(tot.proposals))
	L["core.connections"] = float64(tot.connections)
	L["core.proposals"] = float64(tot.proposals)
	L["core.tokens_moved"] = float64(tot.tokensMoved)
	L["core.control_bits"] = float64(tot.controlBits)
	L["core.productive_ratio"] = ratio(float64(tot.tokensMoved), float64(tot.connections))
	L["core.proposal_ns_per_node_round"] = ratio(float64(st.phaseNs[mobilegossip.PhaseProposal]), float64(st.nodeRounds))
	L["eqtest.exchange_us_per_conn"] = ratio(float64(st.phaseNs[mobilegossip.PhaseExchange])/1e3, float64(tot.connections))
	L["proc.cpu_s"] = base.CPU.Seconds()
	L["proc.peak_rss_mb"] = base.RSSMB
	if w.Specs[0].Grid != nil {
		// gossipsim runs the cells on a pool and this pass one by one, so
		// its wall compares with the untraced CPU time, not the wall.
		L["trace.overhead_share"] = ratio(tracedWall.Seconds(), base.CPU.Seconds()) - 1
		L["runner.pool_efficiency"] = ratio(t.cellSum.Seconds(), float64(runtime.GOMAXPROCS(0))*base.Wall.Seconds())
	} else {
		L["trace.overhead_share"] = ratio(tracedWall.Seconds(), base.Wall.Seconds()) - 1
		L["cli.overhead_ms"] = ms(base.Wall - tracedWall)
	}
	L["trace.span_coverage"] = t.tr.coverage("cli.run")

	// Standalone probes: layers timed on their own, outside any session.
	for _, s := range w.Specs {
		sp := t.tr.begin("topology.build", 0, s.Name)
		_, err := s.Topology.Build(s.N, s.Tau, s.Seed)
		L["topology.build_ms"] += ms(t.tr.end(sp))
		if err != nil {
			return nil, nil, ck, err
		}
	}
	if w.CheckpointAt > 0 {
		s := w.Specs[0]
		L["mtm.barrier_s"] = seconds(st.barrierNs)
		L["mtm.shard_imbalance_p50"] = float64(quantile(st.imbalance, 0.50)) / 1000
		L["mobility.churn_ms_per_round"] = ratio(float64(st.churnNs[0])/1e6, float64(st.churnRounds[0]))
		L["adversary.churn_ms_per_round"] = ratio(float64(st.churnNs[1])/1e6, float64(st.churnRounds[1]))
		L["topology.edges_changed"] = float64(tot.edgesChanged)
		L["topology.ns_per_changed_edge"] = ratio(float64(st.phaseNs[mobilegossip.PhaseChurn]), float64(tot.edgesChanged))
		// Replay the roam schedule with no engine attached.
		dyn, err := s.Topology.Build(s.N, s.Tau, s.Seed)
		if err != nil {
			return nil, nil, ck, err
		}
		var advance time.Duration
		for r := 1; r <= s.Phases[0].Rounds; r++ {
			sp := t.tr.begin("topology.advance", 0, s.Name)
			dyn.At(r)
			advance += t.tr.end(sp)
		}
		L["topology.advance_ms_per_round"] = ratio(ms(advance), float64(s.Phases[0].Rounds))
		L["events.standalone_lines_per_s"] = sinkThroughput()
	}
	if w.SpeedupRounds > 0 && runtime.NumCPU() >= 2 {
		workers := min(4, runtime.NumCPU())
		one, err := stepLoop(w.Specs[0], 1, w.SpeedupRounds)
		if err != nil {
			return nil, nil, ck, err
		}
		many, err := stepLoop(w.Specs[0], workers, w.SpeedupRounds)
		if err != nil {
			return nil, nil, ck, err
		}
		L["mtm.shard_speedup"] = ratio(one.Seconds(), many.Seconds())
		L["mtm.shard_speedup_workers"] = float64(workers)
	}
	return L, t.tr, ck, nil
}

// stepLoop times the first rounds of s at the given engine worker count.
func stepLoop(s scenario, workers, rounds int) (time.Duration, error) {
	cfg := s.config(s.N, s.K, s.Seed)
	cfg.EngineWorkers = workers
	sim, err := mobilegossip.New(cfg)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for sim.Round() < rounds && !sim.Done() {
		if _, err := sim.Step(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// sinkThroughput pushes synthetic round_completed events through a JSONL
// sink into io.Discard and returns lines per second. The queue holds every
// event, so none is dropped and the figure is the sink's drain rate.
func sinkThroughput() float64 {
	const lines = 200_000
	bus := new(mobilegossip.EventBus)
	sink := mobilegossip.NewJSONLSink(bus, io.Discard, mobilegossip.EventFilter{}, lines)
	start := time.Now()
	for r := 1; r <= lines; r++ {
		bus.Publish(mobilegossip.Event{
			Type: mobilegossip.EventRoundCompleted, Round: r, Potential: lines - r,
			Connections: 3000, Proposals: 4000, ControlBits: 1 << 24, TokensMoved: 3000,
		})
	}
	sink.Close()
	return ratio(float64(sink.Written()), time.Since(start).Seconds())
}

// traceDaemon turns a traced pass of the daemon workload into the
// gossipd.* metrics. localCost is what the reference runs of the load's
// seeds took in-process.
func traceDaemon(w workload, p, base pass, tr *tracer, localCost time.Duration) map[string]float64 {
	load, stats := *w.Daemon, p.Daemon
	L := make(map[string]float64)
	for _, op := range []string{"create", "run_partial", "run_finish", "state", "checkpoint", "events", "delete"} {
		d := tr.named("http." + op)
		L["gossipd."+op+"_p50_ms"] = ms(quantile(d, 0.50))
		L["gossipd."+op+"_p99_ms"] = ms(quantile(d, 0.99))
	}
	L["gossipd.run_finish_p95_ms"] = ms(quantile(tr.named("http.run_finish"), 0.95))
	L["gossipd.sessions_per_s"] = ratio(float64(load.Sessions), p.Wall.Seconds())
	L["gossipd.requests"] = float64(stats.Requests)
	L["gossipd.failed_requests"] = float64(stats.FailedRequests)
	L["gossipd.evictions"] = stats.Scrape["gossipd_evictions_total"]
	L["gossipd.revivals"] = stats.Scrape["gossipd_revivals_total"]
	L["gossipd.evict_errors"] = stats.Scrape["gossipd_eviction_errors_total"]
	L["gossipd.cpu_s"] = p.CPU.Seconds()
	served := float64(load.Sessions + load.Warmup)
	L["gossipd.cpu_ms_per_session"] = ratio(ms(p.CPU), served)
	L["gossipd.peak_rss_mb"] = p.RSSMB
	// The reference runs cover each seed once; the daemon served every
	// seed served/Seeds times.
	local := localCost.Seconds() * served / float64(load.Seeds)
	L["gossipd.service_overhead_share"] = 1 - ratio(local, p.CPU.Seconds())
	L["events.lines"] = float64(stats.EventLines)
	L["events.mb"] = mb(stats.EventBytes)
	L["events.standalone_lines_per_s"] = sinkThroughput()
	L["trace.overhead_share"] = ratio(p.Wall.Seconds(), base.Wall.Seconds()) - 1
	L["trace.span_coverage"] = tr.coverage("client.loop")
	return L
}

// quantile returns the q-quantile of v by nearest rank (0 when empty).
func quantile[T ~int64](v []T, q float64) T {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func seconds(ns int64) float64   { return float64(ns) / 1e9 }
func mb(bytes int64) float64     { return float64(bytes) / 1e6 }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
