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
// engine's timing sidecar — round/phase latency histograms, shard
// balance, the stall detector — without changing the simulation's output
// in any way. The run then emits round_profile events into -events
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
// download, -events via recorded-stream replay. The daemon executes the
// identical deterministic simulation, so the result table, checkpoint
// files and event stream are byte-identical to the local run's — which
// the determinism CI matrix asserts:
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
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"mobilegossip"
	"mobilegossip/client"
	"mobilegossip/internal/httpserve"
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
	var (
		algName   = fs.String("alg", "sharedbit", "algorithm: "+strings.Join(mobilegossip.AlgorithmNames(), "|"))
		graphName = fs.String("graph", "regular", "topology or mobility model: "+strings.Join(mobilegossip.TopologyKindNames(), "|"))
		nList     = fs.String("n", "64", "network size, or comma list for a sweep")
		kList     = fs.String("k", "8", "token count (1..n), or comma list for a sweep")
		tau       = fs.Int("tau", 0, "stability factor; 0 = static (τ=∞), t>=1 redraws topology every t rounds")
		degree    = fs.Int("degree", 4, "degree for -graph regular")
		p         = fs.Float64("p", 0, "edge probability for -graph gnp (0 = default 2·ln(n)/n)")
		radius    = fs.Float64("radius", 0, "connection radius for -graph rgg, or radio range for the mobility models (0 = default)")
		attach    = fs.Int("attach", 0, "edges per new vertex for -graph pa (0 = default 3)")
		speed     = fs.Float64("speed", 0, "per-round motion step for the mobility models (0 = default 0.01; negative = frozen)")
		pause     = fs.Int("pause", 0, "waypoint dwell in motion epochs for -graph waypoint (0 = default 2)")
		levyAlpha = fs.Float64("levyalpha", 0, "Lévy tail exponent for -graph levy (0 = default 1.6)")
		groups    = fs.Int("groups", 0, "attractor count for -graph group (0 = default 4)")
		attract   = fs.Float64("attract", 0, "gathering intensity in [0,1] for -graph group (0 = default 0.6; negative = 0)")
		period    = fs.Int("period", 0, "commute cycle in rounds for -graph commuter (0 = default 64)")
		advName   = fs.String("adversary", "none", "adversarial strategy layered over -graph: "+strings.Join(mobilegossip.AdversaryKindNames(), "|"))
		advBudget = fs.Int("advbudget", 0, "max edges the adversary may cut per epoch (0 = unlimited)")
		advParts  = fs.Int("advparts", 0, "adversary partition count: bridges groups / blackout regions (0 = default 4), topk k (0 = default 3)")
		advPeriod = fs.Int("advperiod", 0, "blackout/partition event cycle in epochs (0 = default 8)")
		epsilon   = fs.Float64("epsilon", 0, "ε-gossip fraction in (0,1); requires -alg sharedbit and -k = -n")
		seed      = fs.Uint64("seed", 1, "run seed (fully determines the execution, sweep or single)")
		maxRounds = fs.Int("maxrounds", 0, "abort after this many rounds (0 = engine default)")
		trace     = fs.Int("trace", 0, "print φ(r) every this many rounds (0 = off, single runs only)")
		engineW   = fs.Int("engineworkers", 0, "shard-parallel engine workers: 0 = auto (GOMAXPROCS, large runs only), 1 = sequential, >=2 exact; results identical at any value")
		relabelF  = fs.String("relabel", "none", "cache-aware vertex relabeling for generated topologies: "+strings.Join(mobilegossip.RelabelKindNames(), "|"))
		tagBits   = fs.Int("b", 0, "tag length for -alg sharedbit (>=2 runs the multi-bit generalization)")
		traceFile = fs.String("tracefile", "", "write per-proposal/per-connection JSONL events to this file (single runs only)")
		trials    = fs.Int("trials", 1, "repetitions per sweep point (>1 switches to the sweep path)")
		parallel  = fs.Int("parallel", 0, "sweep worker pool size; 0 = GOMAXPROCS (results identical at any value)")
		asJSON    = fs.Bool("json", false, "emit the sweep as a BENCH-shaped JSON document")
		ckptFile  = fs.String("checkpoint", "", "write a checkpoint to this file at round -checkpointat, then keep running (single runs only)")
		ckptAt    = fs.Int("checkpointat", 0, "round at which -checkpoint snapshots the run (0 = when the run finishes)")
		resumeF   = fs.String("resume", "", "resume from this checkpoint file; the simulation flags come from the checkpoint")
		sample    = fs.Int("sample", 0, "record φ(r) every this many rounds and print the curve after the run (single runs only)")
		eventsF   = fs.String("events", "", "write session events (round/churn/checkpoint/session, DESIGN.md §12) as JSONL to this file (single runs only)")
		metricsF  = fs.String("metrics", "", "serve Prometheus-style /metrics plus /debug/pprof on this address, e.g. :9090, for the run's duration (single runs only)")
		profileF  = fs.Bool("profile", false, "attach the engine timing profiler (DESIGN.md §13): round_profile events, latency histograms on -metrics, a post-run summary; never changes the simulation's results (single runs only)")
		remoteF   = fs.String("remote", "", "drive the run against the gossipd daemon at this address (host:port) instead of in-process; output is byte-identical to the local run (single runs only)")
		remoteGap = fs.Duration("remotepause", 0, "with -remote: idle this long between the -checkpointat snapshot and the final run, giving a daemon with a short -idletimeout room to evict and revive the session (a determinism test hook)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed by the FlagSet
		}
		return err
	}

	opts := obsOptions{
		trace: *trace, traceFile: *traceFile, sample: *sample,
		ckptFile: *ckptFile, ckptAt: *ckptAt,
		events: *eventsF, metrics: *metricsF, profile: *profileF,
	}
	if *remoteF != "" {
		if *trace > 0 || *traceFile != "" || *sample > 0 || *metricsF != "" || *profileF {
			return fmt.Errorf("-trace, -tracefile, -sample, -metrics and -profile run in-process observers and do not combine with -remote")
		}
	} else if *remoteGap > 0 {
		return fmt.Errorf("-remotepause requires -remote")
	}
	if *resumeF != "" {
		if *remoteF != "" {
			return runRemoteResume(*remoteF, *resumeF, *remoteGap, opts)
		}
		return runResume(*resumeF, *engineW, opts)
	}

	alg, err := mobilegossip.ParseAlgorithm(*algName)
	if err != nil {
		return err
	}
	kind, err := mobilegossip.ParseTopologyKind(*graphName)
	if err != nil {
		return err
	}
	adv, err := mobilegossip.ParseAdversaryKind(*advName)
	if err != nil {
		return err
	}
	relabel, err := mobilegossip.ParseRelabelKind(*relabelF)
	if err != nil {
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

	mkConfig := func(n, k int) mobilegossip.Config {
		return mobilegossip.Config{
			Algorithm: alg,
			N:         n,
			K:         k,
			Topology: mobilegossip.Topology{
				Kind: kind, Degree: *degree, P: *p, Radius: *radius, Attach: *attach,
				Speed: *speed, Pause: *pause, LevyAlpha: *levyAlpha,
				Groups: *groups, Attract: *attract, Period: *period,
				Adversary: adv, AdvBudget: *advBudget,
				AdvParts: *advParts, AdvPeriod: *advPeriod,
				Relabel: relabel,
			},
			Tau:           *tau,
			Epsilon:       *epsilon,
			TagBits:       *tagBits,
			MaxRounds:     *maxRounds,
			EngineWorkers: *engineW,
		}
	}

	if len(ns) > 1 || len(ks) > 1 || *trials > 1 || *asJSON {
		if *trace > 0 || *traceFile != "" || *sample > 0 || *ckptFile != "" || *eventsF != "" || *metricsF != "" || *profileF {
			return fmt.Errorf("-trace, -tracefile, -sample, -checkpoint, -events, -metrics and -profile apply to single runs only, not sweeps")
		}
		if *remoteF != "" {
			return fmt.Errorf("-remote applies to single runs only, not sweeps")
		}
		var points []mobilegossip.Config
		for _, n := range ns {
			for _, k := range ks {
				points = append(points, mkConfig(n, k))
			}
		}
		return runSweep(points, *trials, *seed, *parallel, *asJSON)
	}
	cfg := mkConfig(ns[0], ks[0])
	cfg.Seed = *seed
	cfg.Profile = *profileF
	if *remoteF != "" {
		return runRemote(*remoteF, cfg, *remoteGap, opts)
	}
	sim, err := mobilegossip.New(cfg)
	if err != nil {
		return err
	}
	return driveSingle(sim, opts)
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

// obsOptions bundles the observability/checkpoint flags shared by the
// fresh-run and resume paths.
type obsOptions struct {
	trace     int
	traceFile string
	sample    int
	ckptFile  string
	ckptAt    int
	events    string // -events: JSONL event-sink file
	metrics   string // -metrics: /metrics listen address
	profile   bool   // -profile: attach the timing sidecar
}

// runResume revives a checkpointed session and drives it to completion.
// Checkpoints carry no worker count or profiling state (sequential,
// parallel, profiled and unprofiled runs all write interchangeable
// streams), so the -engineworkers and -profile flags apply to the
// revived session directly.
func runResume(path string, engineWorkers int, opts obsOptions) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	sim, err := mobilegossip.Resume(f)
	f.Close()
	if err != nil {
		return err
	}
	sim.SetEngineWorkers(engineWorkers)
	if opts.profile {
		sim.EnableProfiling()
	}
	fmt.Printf("resumed from %s at round %d (φ=%d)\n", path, sim.Round(), sim.Potential())
	return driveSingle(sim, opts)
}

// wireRequest renders cfg as the daemon's create request (enum values by
// their wire names — the same names the flags parse).
func wireRequest(cfg mobilegossip.Config, recordEvents bool) client.CreateRequest {
	t := cfg.Topology
	return client.CreateRequest{
		Algorithm: cfg.Algorithm.String(),
		N:         cfg.N,
		K:         cfg.K,
		Topology: client.TopologySpec{
			Kind: t.Kind.String(), Degree: t.Degree, P: t.P,
			Rows: t.Rows, Cols: t.Cols,
			CliqueSize: t.CliqueSize, PathLen: t.PathLen,
			Radius: t.Radius, Attach: t.Attach,
			Speed: t.Speed, Pause: t.Pause, LevyAlpha: t.LevyAlpha,
			Groups: t.Groups, Attract: t.Attract, Period: t.Period,
			Adversary: t.Adversary.String(), AdvBudget: t.AdvBudget,
			AdvParts: t.AdvParts, AdvPeriod: t.AdvPeriod,
			Relabel: t.Relabel.String(),
		},
		Tau:           cfg.Tau,
		Epsilon:       cfg.Epsilon,
		TagBits:       cfg.TagBits,
		Seed:          cfg.Seed,
		MaxRounds:     cfg.MaxRounds,
		EngineWorkers: cfg.EngineWorkers,
		Profile:       cfg.Profile,
		TransferEps:   cfg.TransferEps,
		RecordEvents:  recordEvents,
	}
}

// runRemote creates a session on the daemon from cfg and drives it like
// driveSingle drives a local one.
func runRemote(addr string, cfg mobilegossip.Config, pause time.Duration, opts obsOptions) error {
	c := client.New(addr)
	ctx := context.Background()
	info, err := c.Create(ctx, wireRequest(cfg, opts.events != ""))
	if err != nil {
		return err
	}
	return driveRemote(ctx, c, info, pause, opts)
}

// runRemoteResume uploads a checkpoint file to the daemon and drives the
// revived session. The daemon re-resolves worker count and profiling for
// its own process (checkpoints deliberately carry neither).
func runRemoteResume(addr, path string, pause time.Duration, opts obsOptions) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	c := client.New(addr)
	ctx := context.Background()
	info, err := c.Resume(ctx, f, opts.events != "")
	f.Close()
	if err != nil {
		return err
	}
	fmt.Printf("resumed from %s at round %d (φ=%d)\n", path, info.Round, info.Potential)
	return driveRemote(ctx, c, info, pause, opts)
}

// driveRemote mirrors driveSingle over the wire: run to -checkpointat
// and download the snapshot, run to completion, download the recorded
// events, print the summary table — every artifact byte-identical to the
// local run's. The session is deleted on the way out.
func driveRemote(ctx context.Context, c *client.Client, info client.SessionInfo, pause time.Duration, opts obsOptions) error {
	id := info.ID
	defer c.Delete(context.Background(), id) //nolint:errcheck // best-effort cleanup
	start := time.Now()
	if opts.ckptFile != "" && opts.ckptAt > 0 {
		if rel := opts.ckptAt - info.Round; rel > 0 {
			if _, err := c.Run(ctx, id, rel); err != nil {
				return err
			}
		}
		if err := downloadCheckpoint(ctx, c, id, opts.ckptFile); err != nil {
			return err
		}
	}
	if pause > 0 {
		// Determinism test hook: idle here so a daemon with a short
		// -idletimeout evicts the session; the final run below must then
		// revive it with no observable difference.
		time.Sleep(pause)
	}
	res, err := c.Run(ctx, id, 0)
	if err != nil {
		return err
	}
	if opts.ckptFile != "" && opts.ckptAt <= 0 {
		if err := downloadCheckpoint(ctx, c, id, opts.ckptFile); err != nil {
			return err
		}
	}
	if opts.events != "" {
		if err := downloadEvents(ctx, c, id, opts.events); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	s := res.Session
	return printResultTable(resultView{
		algorithm: res.Algorithm, topology: res.Topology,
		n: s.N, k: s.K, tau: s.Tau, epsilon: s.Epsilon,
		solved: res.Solved, rounds: res.Rounds,
		connections: res.Connections, proposals: res.Proposals,
		controlBits: res.ControlBits, tokensMoved: res.TokensMoved,
		edgesAdded: res.EdgesAdded, edgesRemoved: res.EdgesRemoved,
		finalPotential: res.FinalPotential, elapsed: elapsed,
	})
}

// downloadCheckpoint fetches the session's checkpoint into path and
// prints the same confirmation line writeCheckpoint prints locally.
func downloadCheckpoint(ctx context.Context, c *client.Client, id, path string) error {
	rc, err := c.Checkpoint(ctx, id)
	if err != nil {
		return err
	}
	defer rc.Close()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, rc); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := c.State(ctx, id)
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint written to %s at round %d (φ=%d)\n", path, info.Round, info.Potential)
	return nil
}

// downloadEvents replays the session's recorded event stream into path —
// the bytes a local -events file holds.
func downloadEvents(ctx context.Context, c *client.Client, id, path string) error {
	rc, err := c.Events(ctx, id, client.EventOptions{})
	if err != nil {
		return err
	}
	defer rc.Close()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, rc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// driveSingle attaches the requested observers, runs the session to
// completion (snapshotting at -checkpointat if asked), and prints the
// summary.
func driveSingle(sim *mobilegossip.Simulation, opts obsOptions) error {
	var tracer *mobilegossip.TraceObserver
	if opts.traceFile != "" {
		f, err := os.Create(opts.traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		tracer = mobilegossip.NewTraceObserver(f)
		sim.Observe(tracer)
	}
	if opts.trace > 0 {
		every := opts.trace
		sim.Observe(roundPrinter{every: every})
	}
	var sampler *mobilegossip.PotentialSampler
	if opts.sample > 0 {
		sampler = mobilegossip.NewPotentialSampler(opts.sample)
		sim.Observe(sampler)
	}
	var sink *mobilegossip.EventJSONLSink
	if opts.events != "" {
		f, err := os.Create(opts.events)
		if err != nil {
			return err
		}
		defer f.Close()
		sink = mobilegossip.NewJSONLSink(sim.Bus(), f, mobilegossip.EventFilter{}, 0)
	}
	if opts.metrics != "" {
		stop, err := serveMetrics(sim, opts.metrics)
		if err != nil {
			return err
		}
		defer stop()
	}

	start := time.Now()
	if opts.ckptFile != "" && opts.ckptAt > 0 {
		for !sim.Done() && sim.Round() < opts.ckptAt {
			if _, err := sim.Step(); err != nil {
				return err
			}
		}
		if err := writeCheckpoint(sim, opts.ckptFile); err != nil {
			return err
		}
	}
	res, err := sim.Run(context.Background())
	if err == nil && tracer != nil {
		// A failed trace stream must fail the command (as the legacy
		// TraceWriter path did), not ship a truncated JSONL with exit 0.
		err = tracer.Err()
	}
	if sink != nil {
		// Drain and flush whether or not the run failed; a dead event
		// stream fails the command like a dead trace stream does.
		cerr := sink.Close()
		if err == nil {
			err = cerr
		}
		if d := sink.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "events: %d events dropped (writer slower than the simulation; see DESIGN.md §12)\n", d)
		}
	}
	if err != nil {
		return err
	}
	if opts.ckptFile != "" && opts.ckptAt <= 0 {
		if err := writeCheckpoint(sim, opts.ckptFile); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	return printResult(sim, res, sampler, elapsed)
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

// writeCheckpoint snapshots the session to path.
func writeCheckpoint(sim *mobilegossip.Simulation, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sim.Checkpoint(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("checkpoint written to %s at round %d (φ=%d)\n", path, sim.Round(), sim.Potential())
	return nil
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

// resultView is the run summary as plain data, so the local path
// (Simulation + Result) and the remote path (wire RunResult) render the
// byte-identical table through one printer.
type resultView struct {
	algorithm, topology                              string
	n, k, tau                                        int
	epsilon                                          float64
	solved                                           bool
	rounds                                           int
	connections, proposals, controlBits, tokensMoved int64
	edgesAdded, edgesRemoved                         int64
	finalPotential                                   int
	elapsed                                          time.Duration
}

// printResultTable renders the single-run summary table from the view.
func printResultTable(v resultView) error {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "algorithm\t%s\n", v.algorithm)
	fmt.Fprintf(tw, "topology\t%s (n=%d, τ=%s)\n", v.topology, v.n, tauString(v.tau))
	fmt.Fprintf(tw, "tokens\t%d\n", v.k)
	if v.epsilon > 0 {
		fmt.Fprintf(tw, "objective\tε-gossip (ε=%.2f)\n", v.epsilon)
	} else {
		fmt.Fprintf(tw, "objective\tgossip (all nodes learn all tokens)\n")
	}
	fmt.Fprintf(tw, "solved\t%v\n", v.solved)
	fmt.Fprintf(tw, "rounds\t%d\n", v.rounds)
	fmt.Fprintf(tw, "connections\t%d\n", v.connections)
	fmt.Fprintf(tw, "proposals\t%d\n", v.proposals)
	fmt.Fprintf(tw, "control bits\t%d\n", v.controlBits)
	fmt.Fprintf(tw, "tokens moved\t%d\n", v.tokensMoved)
	if v.edgesAdded > 0 || v.edgesRemoved > 0 {
		fmt.Fprintf(tw, "edge churn\t+%d/-%d (%.1f per round)\n",
			v.edgesAdded, v.edgesRemoved,
			float64(v.edgesAdded+v.edgesRemoved)/float64(max(v.rounds, 1)))
	}
	fmt.Fprintf(tw, "final φ\t%d\n", v.finalPotential)
	fmt.Fprintf(tw, "wall time\t%v\n", v.elapsed.Round(time.Millisecond))
	return tw.Flush()
}

// printResult renders the single-run summary table plus the local-only
// extras (-sample curve, -profile timing summary).
func printResult(sim *mobilegossip.Simulation, res mobilegossip.Result, sampler *mobilegossip.PotentialSampler, elapsed time.Duration) error {
	cfg := sim.Config()
	if err := printResultTable(resultView{
		algorithm: res.Algorithm.String(), topology: res.Topology,
		n: cfg.N, k: cfg.K, tau: cfg.Tau, epsilon: cfg.Epsilon,
		solved: res.Solved, rounds: res.Rounds,
		connections: res.Connections, proposals: res.Proposals,
		controlBits: res.ControlBits, tokensMoved: res.TokensMoved,
		edgesAdded: res.EdgesAdded, edgesRemoved: res.EdgesRemoved,
		finalPotential: res.FinalPotential, elapsed: elapsed,
	}); err != nil {
		return err
	}
	if sampler != nil {
		fmt.Println("\npotential curve (from -sample):")
		for _, s := range sampler.Samples() {
			fmt.Printf("  round %8d  φ=%d\n", s.Round, s.Potential)
		}
	}
	printProfile(sim)
	return nil
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
	if imb := p.Imbalance(); imb.Count() > 0 {
		fmt.Printf("profile: shard imbalance p50 ≤%.2fx, barrier wait p95 ≤%v (total %v)\n",
			float64(imb.Quantile(0.50))/1000,
			d(p.BarrierWait().Quantile(0.95)), d(p.BarrierWait().Sum()))
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

func tauString(tau int) string {
	if tau <= 0 {
		return "∞"
	}
	return fmt.Sprintf("%d", tau)
}
