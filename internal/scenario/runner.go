package scenario

// The scenario runner: executes a parsed Spec locally (in-process
// sessions / sweeps) or against a gossipd daemon, with byte-identical
// stdout either way. Single runs lower the spec to a create request and a
// Timeline and hand both to the one driver (session.go, drive.go) that
// flag-driven gossipsim runs use too; the expect block is evaluated
// through internal/outcome — locally for local runs, by the daemon's
// assert endpoint for remote ones, with identical failure text.

import (
	"context"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"mobilegossip"
	"mobilegossip/client"
	"mobilegossip/internal/outcome"
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

// AssertionError reports a local run that violated its expect block.
// Remote runs surface the same text as a *client.APIError (HTTP 409)
// from the daemon's assert endpoint.
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
// and for expect-block violations (*AssertionError locally,
// *client.APIError remotely).
func Run(spec *Spec, opts Options) error {
	opts.fill()
	if spec.Grid != nil && (opts.CheckpointPath != "" || opts.ResumePath != "" || opts.EventsPath != "") {
		return fmt.Errorf("scenario %q: checkpoints and event streams apply to single runs, not grids", spec.Name)
	}
	writeHeader(opts.Out, spec)
	switch {
	case spec.Grid == nil:
		return runSingle(spec, opts)
	case opts.Remote != "":
		return runGridRemote(spec, opts)
	default:
		return runGridLocal(spec, opts)
	}
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

// assertRequest is the expect block as an assert request about a run of
// the given seed that ended after rounds rounds (the public client package
// cannot name internal/outcome, hence the struct conversion).
func (s *Spec) assertRequest(seed uint64, rounds int) client.AssertRequest {
	return client.AssertRequest{
		Scenario: s.Name, Seed: seed, Phase: s.phaseAt(rounds),
		Expect: client.ExpectSpec(*s.Expect),
	}
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
	if spec.Expect != nil {
		if err := s.Assert(ctx, spec.assertRequest(spec.Seed, res.Rounds)); err != nil {
			return err
		}
	}
	writeExpectOK(opts.Out, spec.Expect)
	return nil
}

// ---------------------------------------------------------------------
// Grids: the deterministic sweep, run on RunSweep's pool locally or
// expanded client-side against a daemon; both hand finishGrid the same
// [point][trial] results.

func runGridLocal(spec *Spec, opts Options) error {
	pts := spec.points()
	cfgs := make([]mobilegossip.Config, len(pts))
	for i, pt := range pts {
		cfg, err := spec.Config(pt.n, pt.k)
		if err != nil {
			return err
		}
		cfgs[i] = cfg
	}
	sr, err := mobilegossip.RunSweep(mobilegossip.SweepConfig{
		Points: cfgs, Trials: spec.Grid.Trials, Seed: spec.Seed,
	})
	if err != nil {
		return err
	}
	runs := make([][]client.RunResult, len(pts))
	for p, pr := range sr.Points {
		runs[p] = make([]client.RunResult, len(pr.Runs))
		for t, r := range pr.Runs {
			runs[p][t] = wire.ResultToWire(r, client.SessionInfo{N: pts[p].n, K: pts[p].k})
		}
	}
	return finishGrid(spec, opts, runs)
}

func runGridRemote(spec *Spec, opts Options) error {
	// The daemon has no sweep endpoint; the grid is expanded client-side
	// into one session per (point, trial) cell, each seeded with the
	// exact cell seed RunSweep would derive — so the aggregate table is
	// byte-identical to the local sweep's.
	ctx := context.Background()
	c := client.New(opts.Remote)
	pts := spec.points()
	trials := spec.Grid.Trials
	runs := make([][]client.RunResult, len(pts))
	for p, pt := range pts {
		runs[p] = make([]client.RunResult, trials)
		for t := 0; t < trials; t++ {
			seed := mobilegossip.SweepSeed(spec.Seed, p*trials+t)
			req := spec.CreateRequest(pt.n, pt.k, seed, false)
			info, err := c.Create(ctx, req)
			if err != nil {
				return fmt.Errorf("grid point %d trial %d: %w", p, t, err)
			}
			res, err := c.Run(ctx, info.ID, 0)
			if derr := c.Delete(ctx, info.ID); err == nil {
				err = derr
			}
			if err != nil {
				return fmt.Errorf("grid point %d trial %d: %w", p, t, err)
			}
			runs[p][t] = res
		}
	}
	return finishGrid(spec, opts, runs)
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
	if spec.Expect != nil {
		trials := spec.Grid.Trials
		for p := range runs {
			for t, r := range runs[p] {
				seed := mobilegossip.SweepSeed(spec.Seed, p*trials+t)
				if err := assertResult(spec.assertRequest(seed, r.Rounds), r); err != nil {
					return err
				}
			}
		}
	}
	writeExpectOK(opts.Out, spec.Expect)
	return nil
}
