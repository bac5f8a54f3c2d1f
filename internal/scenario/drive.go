package scenario

// The timeline walker and the file writers and result table above the
// Session seam: written once, blind to the transport. `gossipsim run`
// drives a spec's phases through it; flag-driven gossipsim runs are its
// zero-phase case.

import (
	"context"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"mobilegossip/client"
)

// Timeline is what Drive walks: where each later phase starts and what it
// rebinds, and where the run ends.
type Timeline struct {
	// Scenario labels rebind errors.
	Scenario string
	// Phases are the phases after the first, in order (the first starts
	// the run on the session's own topology and rebinds nothing).
	Phases []PhaseStart
	// End is the absolute round the timeline stops at; 0 runs to
	// completion.
	End int
}

// PhaseStart is one phase boundary.
type PhaseStart struct {
	Name string
	// Round is the boundary: the phase's first round is Round+1.
	Round int
	// Rebind is the phase's effective topology and tau — the last explicit
	// block at or before it — so applying it needs no session history.
	Rebind client.RebindRequest
}

// Drive walks the boundaries {remaining phase starts, opts.CheckpointAt,
// tl.End} in order: run to the boundary, snapshot, rebind. A snapshot
// that coincides with a phase start is taken before that phase's rebind,
// and a session resumed at round r re-applies the rebind of a phase
// starting at r (>=, not >) — together what keeps interrupted and
// uninterrupted runs byte-identical. A snapshot whose round is never
// reached (the run ended earlier, or was resumed past it) is taken when
// the run ends. opts.EventsPath receives the event stream.
func Drive(ctx context.Context, s Session, tl Timeline, opts Options) (res client.RunResult, err error) {
	opts.fill()
	if opts.EventsPath != "" {
		f, cerr := os.Create(opts.EventsPath)
		if cerr != nil {
			return res, cerr
		}
		finish := s.Events(f)
		defer func() {
			// Drain and flush whether or not the run failed; a lossy or
			// dead stream fails the command.
			if ferr := finish(ctx); err == nil {
				err = ferr
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}

	res.Session = s.Info()
	snapPending := opts.CheckpointPath != ""
	snapshot := func() error {
		snapPending = false
		return writeCheckpointFile(ctx, s, opts)
	}
	advance := func(round int) error {
		r, err := s.RunTo(ctx, round)
		if err != nil {
			return err
		}
		res = r
		if snapPending && opts.CheckpointAt > 0 && res.Session.Round == opts.CheckpointAt {
			return snapshot()
		}
		return nil
	}
	// runTo splits the segment at a snapshot round strictly inside it; one
	// exactly on the target is taken by advance, before the caller rebinds.
	runTo := func(target int) error {
		at := opts.CheckpointAt
		if snapPending && at > res.Session.Round && (target == 0 || at < target) {
			if err := advance(at); err != nil {
				return err
			}
		}
		return advance(target)
	}

	for _, ph := range tl.Phases {
		if ph.Round < res.Session.Round {
			continue // resumed into a later phase; the checkpoint carried this one
		}
		if err := runTo(ph.Round); err != nil {
			return res, err
		}
		if res.Session.Done {
			break
		}
		topology, err := s.Rebind(ctx, ph.Rebind)
		if err != nil {
			return res, fmt.Errorf("scenario %q: phase %q: %w", tl.Scenario, ph.Name, err)
		}
		fmt.Fprintf(opts.Log, "phase %s from round %d: %s\n", ph.Name, ph.Round+1, topology)
	}
	if err := runTo(tl.End); err != nil {
		return res, err
	}
	if snapPending {
		return res, snapshot()
	}
	return res, nil
}

// writeCheckpointFile snapshots the session into opts.CheckpointPath
// atomically: streamed to a temporary sibling and renamed into place only
// once complete, so a failed write or a dropped connection leaves the
// previous file (or nothing), never a truncated checkpoint.
func writeCheckpointFile(ctx context.Context, s Session, opts Options) error {
	tmp := opts.CheckpointPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	round, potential, err := s.Checkpoint(ctx, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, opts.CheckpointPath)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	fmt.Fprintf(opts.Log, "checkpoint written to %s at round %d (φ=%d)\n", opts.CheckpointPath, round, potential)
	return nil
}

// RenderTable prints a single run's summary from its wire result; tau is
// the stability factor to show and extra rows ("label\tvalue") follow the
// fixed ones. Everything but such extras is a function of the execution
// alone, so tables byte-compare across runs, workers and transports.
func RenderTable(w io.Writer, res client.RunResult, tau int, extra ...string) error {
	s := res.Session
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "algorithm\t%s\n", res.Algorithm)
	fmt.Fprintf(tw, "topology\t%s (n=%d, τ=%s)\n", res.Topology, s.N, tauString(tau))
	fmt.Fprintf(tw, "tokens\t%d\n", s.K)
	if s.Epsilon > 0 {
		fmt.Fprintf(tw, "objective\tε-gossip (ε=%.2f)\n", s.Epsilon)
	} else {
		fmt.Fprintf(tw, "objective\tgossip (all nodes learn all tokens)\n")
	}
	fmt.Fprintf(tw, "solved\t%v\n", res.Solved)
	fmt.Fprintf(tw, "rounds\t%d\n", res.Rounds)
	fmt.Fprintf(tw, "connections\t%d\n", res.Connections)
	fmt.Fprintf(tw, "proposals\t%d\n", res.Proposals)
	fmt.Fprintf(tw, "control bits\t%d\n", res.ControlBits)
	fmt.Fprintf(tw, "tokens moved\t%d\n", res.TokensMoved)
	if res.EdgesAdded > 0 || res.EdgesRemoved > 0 {
		fmt.Fprintf(tw, "edge churn\t+%d/-%d (%.1f per round)\n",
			res.EdgesAdded, res.EdgesRemoved,
			float64(res.EdgesAdded+res.EdgesRemoved)/float64(max(res.Rounds, 1)))
	}
	fmt.Fprintf(tw, "final φ\t%d\n", res.FinalPotential)
	for _, row := range extra {
		fmt.Fprintln(tw, row)
	}
	return tw.Flush()
}

func tauString(tau int) string {
	if tau <= 0 {
		return "∞"
	}
	return fmt.Sprintf("%d", tau)
}
