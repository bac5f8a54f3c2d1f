package scenario

// The transport seam. Everything above it — the timeline walker, the
// checkpoint and event file writers, the result table — speaks client.*
// plain data and cannot tell an in-process Simulation from a gossipd
// session; everything below it is one of the two implementations here.
// The granularity is the remote API's (run to a round, not step), so the
// local path pays no interface call per round.

import (
	"context"
	"fmt"
	"io"
	"os"

	"mobilegossip"
	"mobilegossip/client"
	"mobilegossip/internal/outcome"
	"mobilegossip/internal/wire"
)

// Session is one simulation session as the driver sees it.
type Session interface {
	// Info is the session's state as of the last call that touched it.
	Info() client.SessionInfo
	// RunTo advances to the absolute round (0 = completion) and reports
	// the totals so far; a session already there (or finished) stays put.
	RunTo(ctx context.Context, round int) (client.RunResult, error)
	// Rebind swaps the topology schedule and stability factor at the
	// current round boundary and returns the new schedule's name.
	Rebind(ctx context.Context, req client.RebindRequest) (topology string, err error)
	// Checkpoint streams a snapshot to w and reports the round and φ it
	// was taken at.
	Checkpoint(ctx context.Context, w io.Writer) (round, potential int, err error)
	// Assert evaluates an expect block against the results so far: a
	// violation is an *AssertionError locally and a 409 *client.APIError
	// remotely, with the same text.
	Assert(ctx context.Context, req client.AssertRequest) error
	// Events directs the session's event stream to w; call it before the
	// first RunTo and the returned finish after the last. (A remote
	// session must have been opened with RecordEvents.)
	Events(w io.Writer) (finish func(context.Context) error)
	// Close releases the session, best-effort.
	Close()
}

// Open builds the session opts selects — in-process or on the daemon at
// opts.Remote, fresh from req or revived from opts.ResumePath, in which
// case only req's wall-clock Profile knob and RecordEvents apply; a
// checkpoint carries the rest.
func Open(ctx context.Context, req client.CreateRequest, opts Options) (Session, error) {
	opts.fill()
	var s Session
	var err error
	if opts.Remote != "" {
		s, err = openRemote(ctx, client.New(opts.Remote), req, opts.ResumePath)
	} else {
		s, err = openLocal(req, opts.ResumePath)
	}
	if err != nil {
		return nil, err
	}
	if opts.ResumePath != "" {
		info := s.Info()
		fmt.Fprintf(opts.Log, "resumed from %s at round %d (φ=%d)\n", opts.ResumePath, info.Round, info.Potential)
	}
	return s, nil
}

func openLocal(req client.CreateRequest, resumePath string) (*Local, error) {
	if resumePath != "" {
		sim, err := mobilegossip.ResumeFile(resumePath)
		if err != nil {
			return nil, err
		}
		if req.Profile {
			sim.EnableProfiling()
		}
		return &Local{Sim: sim}, nil
	}
	cfg, err := wire.ConfigFromWire(req)
	if err != nil {
		return nil, err
	}
	sim, err := mobilegossip.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Local{Sim: sim}, nil
}

func openRemote(ctx context.Context, c *client.Client, req client.CreateRequest, resumePath string) (*remote, error) {
	var info client.SessionInfo
	var err error
	if resumePath != "" {
		f, ferr := os.Open(resumePath)
		if ferr != nil {
			return nil, ferr
		}
		// The daemon re-applies profiling for its own process
		// (checkpoints deliberately do not carry it).
		info, err = c.Resume(ctx, f, req.RecordEvents)
		f.Close()
	} else {
		info, err = c.Create(ctx, req)
	}
	if err != nil {
		return nil, err
	}
	return &remote{c: c, last: client.RunResult{Session: info}}, nil
}

// Local is the in-process Session. Sim is exported so a caller can attach
// its own bus subscribers before driving.
type Local struct {
	Sim *mobilegossip.Simulation
}

func (l *Local) Info() client.SessionInfo {
	cfg := l.Sim.Config()
	res := l.Sim.Result()
	return client.SessionInfo{
		Round: l.Sim.Round(), Potential: l.Sim.Potential(),
		Done: l.Sim.Done(), Solved: res.Solved,
		N: cfg.N, K: l.Sim.K(),
		Algorithm: res.Algorithm.String(), Topology: res.Topology,
		Tau: cfg.Tau, Epsilon: cfg.Epsilon, Seed: cfg.Seed,
	}
}

func (l *Local) result() client.RunResult {
	return wire.ResultToWire(l.Sim.Result(), l.Info())
}

func (l *Local) RunTo(ctx context.Context, round int) (client.RunResult, error) {
	var err error
	if round <= 0 {
		_, err = l.Sim.Run(ctx) // also reports a model-budget violation
	} else {
		for err == nil && !l.Sim.Done() && l.Sim.Round() < round {
			_, err = l.Sim.Step()
		}
	}
	return l.result(), err
}

func (l *Local) Rebind(_ context.Context, req client.RebindRequest) (string, error) {
	topo, err := wire.TopologyFromWire(req.Topology)
	if err != nil {
		return "", err
	}
	if err := l.Sim.Rebind(topo, req.Tau); err != nil {
		return "", err
	}
	return l.Sim.Result().Topology, nil
}

func (l *Local) Checkpoint(_ context.Context, w io.Writer) (int, int, error) {
	return l.Sim.Round(), l.Sim.Potential(), l.Sim.Checkpoint(w)
}

func (l *Local) Assert(_ context.Context, req client.AssertRequest) error {
	return assertResult(req, l.result())
}

func (l *Local) Events(w io.Writer) func(context.Context) error {
	sink := mobilegossip.NewJSONLSink(l.Sim.Bus(), w, mobilegossip.EventFilter{}, 0)
	return func(context.Context) error { return sink.Close() }
}

func (l *Local) Close() {}

// assertResult evaluates req against a run: Local.Assert, and every grid
// cell on either transport.
func assertResult(req client.AssertRequest, res client.RunResult) error {
	vs := outcome.Check(outcome.Expect(req.Expect), wire.RunOutcome(res))
	if len(vs) == 0 {
		return nil
	}
	return &AssertionError{Scenario: req.Scenario, Seed: req.Seed, Phase: req.Phase, Violations: vs}
}

// remote is the gossipd-backed Session. The driver is the session's only
// client, so the SessionInfo of the last response is its current state.
type remote struct {
	c     *client.Client
	last  client.RunResult
	fresh bool // last carries totals from a run call, not just open/rebind state
}

func (r *remote) Info() client.SessionInfo { return r.last.Session }

func (r *remote) RunTo(ctx context.Context, round int) (client.RunResult, error) {
	rounds := 0 // the run endpoint is relative; <= 0 runs to completion
	if round > 0 {
		if rounds = round - r.last.Session.Round; rounds <= 0 {
			if r.fresh || !r.last.Session.Done {
				return r.last, nil
			}
			// Opened onto a finished run: one no-op run call on the
			// finished engine fetches its totals.
			rounds = 1
		}
	}
	res, err := r.c.Run(ctx, r.last.Session.ID, rounds)
	if err != nil {
		return r.last, err
	}
	r.last, r.fresh = res, true
	return res, nil
}

func (r *remote) Rebind(ctx context.Context, req client.RebindRequest) (string, error) {
	info, err := r.c.Rebind(ctx, r.last.Session.ID, req)
	if err != nil {
		return "", err
	}
	r.last.Session = info
	return info.Topology, nil
}

func (r *remote) Checkpoint(ctx context.Context, w io.Writer) (int, int, error) {
	rc, err := r.c.Checkpoint(ctx, r.last.Session.ID)
	if err != nil {
		return 0, 0, err
	}
	defer rc.Close()
	_, err = io.Copy(w, rc)
	return r.last.Session.Round, r.last.Session.Potential, err
}

func (r *remote) Assert(ctx context.Context, req client.AssertRequest) error {
	return r.c.Assert(ctx, r.last.Session.ID, req)
}

func (r *remote) Events(w io.Writer) func(context.Context) error {
	return func(ctx context.Context) error {
		rc, err := r.c.Events(ctx, r.last.Session.ID, client.EventOptions{})
		if err != nil {
			return err
		}
		defer rc.Close()
		_, err = io.Copy(w, rc)
		return err
	}
}

func (r *remote) Close() {
	r.c.Delete(context.Background(), r.last.Session.ID) //nolint:errcheck // best-effort cleanup
}
