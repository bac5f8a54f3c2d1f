// Command gossipsim runs gossip simulations in the mobile telephone model
// and prints the outcome.
//
// Usage:
//
//	gossipsim -alg sharedbit -graph regular -n 128 -k 16 -seed 1
//	gossipsim -alg crowdedbin -graph gnp -n 256 -k 32
//	gossipsim -alg sharedbit -graph regular -n 128 -k 128 -epsilon 0.75
//	gossipsim -alg simsharedbit -graph doublestar -n 64 -k 4 -tau 1
//	gossipsim -alg sharedbit -graph rgg -n 100000 -k 16 -maxrounds 500
//	gossipsim -alg sharedbit -graph waypoint -n 5000 -k 8 -tau 1 -speed 0.02
//	gossipsim -alg simsharedbit -graph group -n 2000 -k 8 -tau 1 -attract 0.9
//
// An adversarial strategy (-adversary, see internal/adversary) can be
// layered over any topology, including the mobility models:
//
//	gossipsim -alg sharedbit -graph regular -n 256 -k 8 -tau 1 -adversary bipartition
//	gossipsim -alg sharedbit -graph waypoint -n 1000 -k 8 -tau 1 -adversary cutrich -advbudget 100
//	gossipsim -alg simsharedbit -graph regular -n 256 -k 8 -tau 1 -adversary blackout -advparts 4
//
// Comma lists in -n and -k, or -trials > 1, switch to the parallel sweep
// path: the n×k cross-product grid runs -trials times per point on the
// worker pool (see mobilegossip.RunSweep), printing one aggregate row per
// point — or, with -json, one BENCH-shaped JSON document:
//
//	gossipsim -alg sharedbit -n 64,128,256 -k 8 -tau 1 -trials 5
//	gossipsim -alg sharedbit -n 64 -k 4,8,16 -trials 7 -parallel 4 -json
//
// Single runs are driven through the stateful session API (mobilegossip.New)
// and can be checkpointed and resumed:
//
//	gossipsim -alg sharedbit -graph waypoint -n 2000 -k 8 -tau 1 \
//	    -checkpoint run.ckpt -checkpointat 50     # snapshot at round 50, then finish
//	gossipsim -resume run.ckpt                    # revive the snapshot, run to the end
//
// The resumed run's totals are byte-identical to the uninterrupted run's —
// the checkpoint carries the full deterministic state (token sets, every
// RNG stream, mobility trajectories).
//
// The -trace flag prints the potential φ(r) every -trace rounds; -sample
// records the φ(r) curve through a PotentialSampler observer and prints it
// after the run (both single runs only).
//
// Structured observability (DESIGN.md §12, single runs only): -events
// streams the session's typed event log — rounds, churn, adversary
// epochs, checkpoints, session lifecycle — as JSONL, and -metrics serves
// a Prometheus-style scrape endpoint for the run's duration:
//
//	gossipsim -alg sharedbit -graph waypoint -n 5000 -k 8 -tau 1 \
//	    -events events.jsonl -metrics :9090
//	curl -s localhost:9090/metrics    # while the run lasts
//
// Profiling (DESIGN.md §13, single runs only): -profile attaches the
// engine's timing sidecar — round/phase latency histograms, the stall
// detector — without changing the simulation's output in any way. The run then emits round_profile events into -events
// (feed the file to runreport), exposes latency histograms and a health
// gauge on -metrics alongside Go's /debug/pprof handlers, and prints a
// "profile:"-prefixed timing summary after the result table:
//
//	gossipsim -alg sharedbit -graph waypoint -n 5000 -k 8 -tau 1 \
//	    -profile -events run.jsonl -metrics :9090
//	runreport run.jsonl
//	curl -s localhost:9090/debug/pprof/profile?seconds=5 > cpu.pb.gz
//
// Remote mode (-remote ADDR) drives the same single-run commands against
// a gossipd daemon instead of in-process: create (or -resume via
// checkpoint upload), run, -checkpoint/-checkpointat via checkpoint
// download, -events via recorded-stream replay. Both transports sit
// behind the one session driver `gossipsim run` uses (internal/scenario;
// a flag-driven run is its timeline with no phases) and the daemon
// executes the identical deterministic simulation, so the result table,
// checkpoint files and event stream are byte-identical to the local
// run's — which the determinism CI matrix asserts:
//
//	gossipd -addr 127.0.0.1:7373 &
//	gossipsim -remote 127.0.0.1:7373 -alg sharedbit -graph waypoint \
//	    -n 2000 -k 8 -tau 1 -events remote.jsonl -checkpoint remote.ckpt
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"mobilegossip"
	"mobilegossip/client"
	"mobilegossip/internal/httpserve"
	"mobilegossip/internal/scenario"
	"mobilegossip/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gossipsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "run" {
		return runScenario(args[1:])
	}
	fs := flag.NewFlagSet("gossipsim", flag.ContinueOnError)
	// The simulation knobs are bound straight into the Config they set; the
	// topology ones come from the binder graphinfo shares.
	var cfg mobilegossip.Config
	topology := wire.TopologyFlags(fs)
	fs.IntVar(&cfg.Tau, "tau", 0, "stability factor; 0 = static (τ=∞), t>=1 redraws topology every t rounds")
	fs.Float64Var(&cfg.Epsilon, "epsilon", 0, "ε-gossip fraction in (0,1); requires -alg sharedbit and -k = -n")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "run seed (fully determines the execution, sweep or single)")
	fs.IntVar(&cfg.MaxRounds, "maxrounds", 0, "abort after this many rounds (0 = engine default)")
	fs.IntVar(&cfg.EngineWorkers, "engineworkers", 0, "accepted and ignored: every round runs on one goroutine")
	fs.IntVar(&cfg.TagBits, "b", 0, "tag length for -alg sharedbit (>=2 runs the multi-bit generalization)")
	fs.BoolVar(&cfg.Profile, "profile", false, "attach the engine timing profiler (DESIGN.md §13): round_profile events, latency histograms on -metrics, a post-run summary; never changes the simulation's results (single runs only)")
	var (
		algName   = fs.String("alg", "sharedbit", "algorithm: "+strings.Join(mobilegossip.AlgorithmNames(), "|"))
		nList     = fs.String("n", "64", "network size, or comma list for a sweep")
		kList     = fs.String("k", "8", "token count (1..n), or comma list for a sweep")
		trace     = fs.Int("trace", 0, "print φ(r) every this many rounds (0 = off, single runs only)")
		trials    = fs.Int("trials", 1, "repetitions per sweep point (>1 switches to the sweep path)")
		parallel  = fs.Int("parallel", 0, "sweep worker pool size; 0 = GOMAXPROCS (results identical at any value)")
		asJSON    = fs.Bool("json", false, "emit the sweep as a BENCH-shaped JSON document")
		ckptFile  = fs.String("checkpoint", "", "write a checkpoint to this file at round -checkpointat, then keep running (single runs only)")
		ckptAt    = fs.Int("checkpointat", 0, "round at which -checkpoint snapshots the run (0 = when the run finishes)")
		resumeF   = fs.String("resume", "", "resume from this checkpoint file; the simulation flags come from the checkpoint")
		sample    = fs.Int("sample", 0, "record φ(r) every this many rounds and print the curve after the run (single runs only)")
		eventsF   = fs.String("events", "", "write session events (round/churn/checkpoint/session, DESIGN.md §12) as JSONL to this file (single runs only)")
		metricsF  = fs.String("metrics", "", "serve Prometheus-style /metrics plus /debug/pprof on this address, e.g. :9090, for the run's duration (single runs only)")
		remoteF   = fs.String("remote", "", "drive the run against the gossipd daemon at this address (host:port) instead of in-process; output is byte-identical to the local run (single runs only)")
		remoteGap = fs.Duration("remotepause", 0, "with -remote: idle this long between the -checkpointat snapshot and the final run, giving a daemon with a short -idletimeout room to evict and revive the session (a determinism test hook)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed by the FlagSet
		}
		return err
	}

	opts := scenario.Options{
		Remote: *remoteF, EventsPath: *eventsF,
		CheckpointPath: *ckptFile, CheckpointAt: *ckptAt, ResumePath: *resumeF,
		Out: os.Stdout, Log: os.Stdout,
	}
	obs := localObservers{trace: *trace, sample: *sample, metrics: *metricsF}
	if *remoteF != "" {
		if *trace > 0 || *sample > 0 || *metricsF != "" || cfg.Profile {
			return fmt.Errorf("-trace, -sample, -metrics and -profile run in-process observers and do not combine with -remote")
		}
	} else if *remoteGap > 0 {
		return fmt.Errorf("-remotepause requires -remote")
	}
	if *resumeF != "" {
		// A checkpoint carries the whole configuration bar the wall-clock
		// Profile knob (profiled and unprofiled runs write interchangeable
		// streams), so only it and -events apply.
		req := client.CreateRequest{Profile: cfg.Profile, RecordEvents: *eventsF != ""}
		return runSingle(req, opts, obs, *remoteGap)
	}

	var err error
	if cfg.Algorithm, err = mobilegossip.ParseAlgorithm(*algName); err != nil {
		return err
	}
	if cfg.Topology, err = topology(); err != nil {
		return err
	}
	ns, err := parseIntList("n", *nList)
	if err != nil {
		return err
	}
	ks, err := parseIntList("k", *kList)
	if err != nil {
		return err
	}

	if len(ns) > 1 || len(ks) > 1 || *trials > 1 || *asJSON {
		if *trace > 0 || *sample > 0 || *ckptFile != "" || *eventsF != "" || *metricsF != "" || cfg.Profile {
			return fmt.Errorf("-trace, -sample, -checkpoint, -events, -metrics and -profile apply to single runs only, not sweeps")
		}
		if *remoteF != "" {
			return fmt.Errorf("-remote applies to single runs only, not sweeps")
		}
		var points []mobilegossip.Config
		for _, n := range ns {
			for _, k := range ks {
				pt := cfg
				pt.N, pt.K = n, k
				points = append(points, pt)
			}
		}
		return runSweep(points, *trials, cfg.Seed, *parallel, *asJSON)
	}
	cfg.N, cfg.K = ns[0], ks[0]
	return runSingle(wire.ConfigToWire(cfg, *eventsF != ""), opts, obs, *remoteGap)
}

// runSweep executes the n×k grid on the worker pool and prints one
// aggregate row per point (or the JSON document).
func runSweep(points []mobilegossip.Config, trials int, seed uint64, parallel int, asJSON bool) error {
	if trials < 1 {
		trials = 1 // mirror RunSweep's default so the summary line counts right
	}
	sr, err := mobilegossip.RunSweep(mobilegossip.SweepConfig{
		Points:  points,
		Trials:  trials,
		Seed:    seed,
		Workers: parallel,
	})
	if err != nil {
		return err
	}
	if asJSON {
		return sr.WriteJSON(os.Stdout)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\ttopology\tn\tk\ttrials\tsolved\trounds mean\t[min,max]\tconns mean")
	for _, pt := range sr.Points {
		topo := pt.Config.Topology.Kind.String()
		if len(pt.Runs) > 0 {
			topo = pt.Runs[0].Topology
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%.1f\t[%d,%d]\t%.0f\n",
			pt.Config.Algorithm, topo, pt.Config.N, pt.Config.K,
			len(pt.Runs), pt.Solved, pt.MeanRounds, pt.MinRounds, pt.MaxRounds,
			pt.MeanConnections)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("%d runs on %d workers in %v\n",
		len(sr.Points)*trials, sr.Workers, sr.Elapsed.Round(time.Millisecond))
	return nil
}

// localObservers bundles the flags that attach in-process observers to a
// local run (rejected with -remote).
type localObservers struct {
	trace   int
	sample  int
	metrics string // -metrics: /metrics listen address
}

// pausing is the -remotepause determinism test hook: it idles before the
// final run-to-completion call so a daemon with a short -idletimeout
// evicts the session, which the call must then revive with no observable
// difference.
type pausing struct {
	scenario.Session
	pause time.Duration
}

func (p pausing) RunTo(ctx context.Context, round int) (client.RunResult, error) {
	if round <= 0 {
		time.Sleep(p.pause)
	}
	return p.Session.RunTo(ctx, round)
}

// runSingle opens the session req and opts describe (fresh or -resume,
// in-process or -remote), attaches the local-only observers, hands it to
// the scenario driver as a timeline with no phases, and prints the
// summary — every artifact byte-identical across the two transports.
func runSingle(req client.CreateRequest, opts scenario.Options, obs localObservers, pause time.Duration) error {
	ctx := context.Background()
	sess, err := scenario.Open(ctx, req, opts)
	if err != nil {
		return err
	}
	defer sess.Close()

	var sim *mobilegossip.Simulation // nil with -remote
	if l, ok := sess.(*scenario.Local); ok {
		sim = l.Sim
	} else if pause > 0 {
		sess = pausing{sess, pause}
	}
	if obs.trace > 0 {
		sim.Observe(roundPrinter{every: obs.trace})
	}
	var sampler *mobilegossip.PotentialSampler
	if obs.sample > 0 {
		sampler = mobilegossip.NewPotentialSampler(obs.sample)
		sim.Observe(sampler)
	}
	if obs.metrics != "" {
		stop, err := serveMetrics(sim, obs.metrics)
		if err != nil {
			return err
		}
		defer stop()
	}

	start := time.Now()
	res, err := scenario.Drive(ctx, sess, scenario.Timeline{}, opts)
	if err != nil {
		return err
	}
	wall := fmt.Sprintf("wall time\t%v", time.Since(start).Round(time.Millisecond))
	if err := scenario.RenderTable(os.Stdout, res, res.Session.Tau, wall); err != nil {
		return err
	}
	if sampler != nil {
		fmt.Println("\npotential curve (from -sample):")
		for _, s := range sampler.Samples() {
			fmt.Printf("  round %8d  φ=%d\n", s.Round, s.Potential)
		}
	}
	if sim != nil {
		printProfile(sim)
	}
	return nil
}

// serveMetrics binds the -metrics address and serves the run's metrics
// collector plus Go's pprof handlers until the returned stop function is
// called. The fail-fast bind, graceful shutdown and pprof mounting live
// in internal/httpserve, shared with the gossipd daemon.
func serveMetrics(sim *mobilegossip.Simulation, addr string) (stop func(), err error) {
	col := mobilegossip.NewMetricsCollector()
	col.Attach(sim.Bus())
	mux := http.NewServeMux()
	mux.Handle("/metrics", col)
	httpserve.MountPprof(mux)
	srv, err := httpserve.Start(addr, mux)
	if err != nil {
		return nil, fmt.Errorf("-metrics: %w", err)
	}
	fmt.Fprintf(os.Stderr, "serving /metrics and /debug/pprof on http://%s/\n", srv.Addr())
	return func() {
		if err := srv.Shutdown(5 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "metrics server shutdown: %v\n", err)
		}
	}, nil
}

// roundPrinter is the -trace observer: φ every N rounds.
type roundPrinter struct {
	mobilegossip.NopObserver
	every int
}

func (rp roundPrinter) EndRound(stats mobilegossip.RoundStats) {
	if stats.Round%rp.every == 0 {
		fmt.Printf("round %8d  φ=%d\n", stats.Round, stats.Potential)
	}
}

// printProfile renders the -profile post-run summary. Every line is
// prefixed "profile:" so scripted consumers comparing result tables
// across profiled and unprofiled runs (the determinism-matrix target)
// can strip the timing — the only output that legitimately varies —
// with a single grep.
func printProfile(sim *mobilegossip.Simulation) {
	p := sim.Profiler()
	if p == nil || p.Rounds() == 0 {
		return
	}
	d := func(ns int64) time.Duration { return time.Duration(ns) }
	rl := p.RoundLatency()
	fmt.Printf("profile: %d rounds, latency p50 ≤%v p95 ≤%v p99 ≤%v, health %s\n",
		p.Rounds(), d(rl.Quantile(0.50)), d(rl.Quantile(0.95)), d(rl.Quantile(0.99)),
		sim.Health())
	var phaseSum int64
	for _, ph := range mobilegossip.ProfilePhases() {
		phaseSum += p.PhaseLatency(ph).Sum()
	}
	if phaseSum > 0 {
		fmt.Printf("profile: phase shares")
		for _, ph := range mobilegossip.ProfilePhases() {
			fmt.Printf("  %s %.1f%%", ph, 100*float64(p.PhaseLatency(ph).Sum())/float64(phaseSum))
		}
		fmt.Println()
	}
	if cw := p.CheckpointWrite(); cw.Count() > 0 {
		fmt.Printf("profile: %d checkpoint writes, p50 ≤%v\n", cw.Count(), d(cw.Quantile(0.50)))
	}
}

// parseIntList parses "64" or "64,128,256" into positive ints.
func parseIntList(name, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("-%s: %q is not a positive integer list", name, s)
		}
		out = append(out, v)
	}
	return out, nil
}
