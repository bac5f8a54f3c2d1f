package scenario

// The scenario runner: executes a parsed Spec locally (in-process
// sessions) or against a gossipd daemon, with byte-identical stdout either
// way. Single runs lower the spec to a create request and a Timeline and
// hand both to the one driver (session.go, drive.go) that flag-driven
// gossipsim runs use too; a grid runs each cell as one such session on the
// internal/runner pool. Every expect block — a single run's or a grid
// cell's, on either transport — is evaluated here, by Spec.check.

import (
	"context"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"mobilegossip"
	"mobilegossip/client"
	"mobilegossip/internal/outcome"
	"mobilegossip/internal/runner"
	"mobilegossip/internal/wire"
)

// Options tunes how a scenario executes — never what it computes: every
// field changes wall-clock, placement, or observability, and the result
// tables and event streams stay byte-identical across all of them (the
// conformance suite's determinism matrix).
type Options struct {
	// Remote, when non-empty, runs the scenario against the gossipd
	// daemon at this address instead of in-process.
	Remote string
	// EventsPath streams the session's events as JSONL to this file
	// (single runs only). Remote runs record on the daemon and download
	// the replay — the same bytes.
	EventsPath string
	// CheckpointPath writes a checkpoint to this file at round
	// CheckpointAt (0, or a round the run never reaches = when the run
	// finishes), single runs only. At a phase boundary the snapshot is
	// taken before the phase's rebind, so resuming re-applies that phase
	// deterministically.
	CheckpointPath string
	CheckpointAt   int
	// ResumePath revives the run from this checkpoint instead of
	// starting fresh; remaining phase boundaries still apply.
	ResumePath string
	// Out receives the deterministic output: header, result table,
	// assertion summary (default os.Stdout).
	Out io.Writer
	// Log receives progress notices — checkpoint written, resumed,
	// phase rebinds (default io.Discard; `gossipsim run` passes stderr).
	// Kept apart from Out so tables byte-compare without any filtering.
	Log io.Writer
}

func (o *Options) fill() {
	if o.Out == nil {
		o.Out = os.Stdout
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
}

// AssertionError reports a run that violated its expect block, on
// either transport.
type AssertionError struct {
	Scenario   string
	Seed       uint64
	Phase      string
	Violations []outcome.Violation
}

func (e *AssertionError) Error() string {
	return outcome.FormatFailure(e.Scenario, e.Seed, e.Phase, e.Violations)
}

// RunFile parses and runs the scenario at path.
func RunFile(path string, opts Options) error {
	spec, err := ParseFile(path)
	if err != nil {
		return err
	}
	return Run(spec, opts)
}

// Run executes the scenario. The error is non-nil for execution failures
// and for expect-block violations (*AssertionError).
func Run(spec *Spec, opts Options) error {
	opts.fill()
	if spec.Grid != nil && (opts.CheckpointPath != "" || opts.ResumePath != "" || opts.EventsPath != "") {
		return fmt.Errorf("scenario %q: checkpoints and event streams apply to single runs, not grids", spec.Name)
	}
	writeHeader(opts.Out, spec)
	if spec.Grid == nil {
		return runSingle(spec, opts)
	}
	runs, err := runGrid(spec, opts)
	if err != nil {
		return err
	}
	return finishGrid(spec, opts, runs)
}

// writeHeader emits the deterministic scenario banner — derived from the
// spec alone, so every execution mode prints the same bytes.
func writeHeader(w io.Writer, spec *Spec) {
	if spec.Description != "" {
		fmt.Fprintf(w, "scenario %s — %s\n", spec.Name, spec.Description)
	} else {
		fmt.Fprintf(w, "scenario %s\n", spec.Name)
	}
	if len(spec.Phases) > 0 {
		fmt.Fprintf(w, "phases:")
		for _, ph := range spec.Phases {
			if ph.Rounds > 0 {
				fmt.Fprintf(w, " %s(%d)", ph.Name, ph.Rounds)
			} else {
				fmt.Fprintf(w, " %s(to completion)", ph.Name)
			}
		}
		fmt.Fprintln(w)
	}
	if spec.Grid != nil {
		pts := spec.points()
		fmt.Fprintf(w, "grid: %d points × %d trials (base seed %d)\n",
			len(pts), spec.Grid.Trials, spec.Seed)
	}
	fmt.Fprintln(w)
}

// writeExpectOK prints the post-assertion confirmation line.
func writeExpectOK(w io.Writer, e *outcome.Expect) {
	if e == nil {
		return
	}
	n := e.Count()
	noun := "checks"
	if n == 1 {
		noun = "check"
	}
	fmt.Fprintf(w, "expect: ok (%d %s)\n", n, noun)
}

// check evaluates the expect block against a run of the given seed: nil
// when it holds (or there is none), else an *AssertionError naming the
// phase the run ended in.
func (s *Spec) check(seed uint64, res client.RunResult) error {
	if s.Expect == nil {
		return nil
	}
	vs := outcome.Check(*s.Expect, wire.RunOutcome(res))
	if len(vs) == 0 {
		return nil
	}
	return &AssertionError{Scenario: s.Name, Seed: seed, Phase: s.phaseAt(res.Rounds), Violations: vs}
}

// runSingle runs a single (fresh or resumed, phased or not) scenario
// through the one driver, on whichever transport opts selects.
func runSingle(spec *Spec, opts Options) error {
	ctx := context.Background()
	req := spec.CreateRequest(spec.N, spec.K, spec.Seed, opts.EventsPath != "")
	s, err := Open(ctx, req, opts)
	if err != nil {
		return err
	}
	defer s.Close()
	tl := spec.timeline()
	res, err := Drive(ctx, s, tl, opts)
	if err != nil {
		return err
	}
	// The τ column shows the stability factor in force at the end of the
	// timeline.
	tau := spec.Tau
	if n := len(tl.Phases); n > 0 {
		tau = tl.Phases[n-1].Rebind.Tau
	}
	if err := RenderTable(opts.Out, res, tau); err != nil {
		return err
	}
	if err := spec.check(spec.Seed, res); err != nil {
		return err
	}
	writeExpectOK(opts.Out, spec.Expect)
	return nil
}

// runGrid runs every (point, trial) cell as one session through the
// transport seam, on the runner's pool, and returns the results indexed
// [point][trial]. The job seed of cell p·T+t is
// mobilegossip.SweepSeed(spec.Seed, p·T+t), so a cell replays as the
// single run at that seed, locally or remotely.
func runGrid(spec *Spec, opts Options) ([][]client.RunResult, error) {
	ctx := context.Background()
	pts := spec.points()
	return runner.MapGrid(runner.Config{Seed: spec.Seed}, len(pts), spec.Grid.Trials,
		func(p, t int, seed uint64) (client.RunResult, error) {
			res, err := runCell(ctx, spec.CreateRequest(pts[p].n, pts[p].k, seed, false), opts)
			if err != nil {
				return res, fmt.Errorf("grid point %d trial %d: %w", p, t, err)
			}
			return res, nil
		})
}

// runCell runs one grid cell to completion and releases its session.
func runCell(ctx context.Context, req client.CreateRequest, opts Options) (client.RunResult, error) {
	s, err := Open(ctx, req, opts)
	if err != nil {
		return client.RunResult{}, err
	}
	defer s.Close()
	return s.RunTo(ctx, 0)
}

// finishGrid renders the aggregate table (gossipsim's sweep columns,
// without the timing footer) and evaluates the expect block against
// every cell.
func finishGrid(spec *Spec, opts Options, runs [][]client.RunResult) error {
	tw := tabwriter.NewWriter(opts.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\ttopology\tn\tk\ttrials\tsolved\trounds mean\t[min,max]\tconns mean")
	for _, cell := range runs {
		solved := 0
		minR, maxR := cell[0].Rounds, cell[0].Rounds
		var sumR, sumConns float64
		for _, r := range cell {
			if r.Solved {
				solved++
			}
			sumR += float64(r.Rounds)
			sumConns += float64(r.Connections)
			minR = min(minR, r.Rounds)
			maxR = max(maxR, r.Rounds)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%.1f\t[%d,%d]\t%.0f\n",
			cell[0].Algorithm, cell[0].Topology, cell[0].Session.N, cell[0].Session.K,
			len(cell), solved, sumR/float64(len(cell)), minR, maxR,
			sumConns/float64(len(cell)))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for p := range runs {
		for t, r := range runs[p] {
			if err := spec.check(mobilegossip.SweepSeed(spec.Seed, p*spec.Grid.Trials+t), r); err != nil {
				return err
			}
		}
	}
	writeExpectOK(opts.Out, spec.Expect)
	return nil
}
