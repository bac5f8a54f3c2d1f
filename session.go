package mobilegossip

import (
	"context"
	"errors"
	"fmt"

	"mobilegossip/internal/adversary"
	"mobilegossip/internal/core"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/events"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
	"mobilegossip/internal/profile"
)

// tokenCounts adapts the run state onto adversary.StateReader.
type tokenCounts struct{ st *core.State }

func (t tokenCounts) TokenCount(u int) int { return t.st.Set(u).Len() }

// Simulation is a stateful gossip session: the stepwise, observable,
// cancelable and resumable form of Run. Construct with New (or Resume),
// then either drive the loop yourself —
//
//	sim, err := mobilegossip.New(cfg)
//	for !sim.Done() {
//	    stats, err := sim.Step()
//	    // inspect stats, sim.Potential(), sim.TokenCount(u), ...
//	}
//	res := sim.Result()
//
// — or hand the loop to Run(ctx), which steps to completion and honors
// context cancellation between rounds. A canceled run is not lost: the
// simulation stays at the round boundary it reached, and can be stepped
// further, run again, or serialized with Checkpoint and later revived with
// Resume on another process — byte-identically to an uninterrupted run.
//
// A Simulation is not safe for concurrent use; drive it from one
// goroutine.
type Simulation struct {
	cfg   Config
	st    *core.State
	dyn   dyngraph.Dynamic
	parts protoParts
	eng   *mtm.Engine

	observers []Observer
	began     bool
	finished  bool

	bus          *events.Bus
	fanAttached  bool              // observer pipeline registered on the bus
	resumed      bool              // built by Resume: begin announces it
	adv          *adversary.Engine // non-nil when the schedule is adversarial
	lastAdvEpoch int               // last adversary epoch announced on the bus

	prof  *profile.Recorder      // timing sidecar (nil = profiling off)
	stall *profile.StallDetector // convergence watcher, driven by Step
}

// ErrSimulationDone is returned by Step once the run is over (objective
// reached or MaxRounds exhausted).
var ErrSimulationDone = errors.New("mobilegossip: simulation already finished")

// ErrBudgetExceeded reports that some connection exceeded the model's
// per-connection communication budget; Run surfaces it after the run ends.
var ErrBudgetExceeded = mtm.ErrBudgetExceeded

// New validates cfg and builds a simulation session positioned before
// round 1, with Config.Observers attached.
func New(cfg Config) (*Simulation, error) {
	if cfg.N < 2 {
		return nil, ErrBadN
	}
	if cfg.Assignment == nil && (cfg.K < 1 || cfg.K > cfg.N) {
		return nil, ErrBadK
	}
	if cfg.Epsilon != 0 {
		if cfg.Epsilon <= 0 || cfg.Epsilon >= 1 {
			return nil, fmt.Errorf("mobilegossip: Epsilon %v outside (0,1)", cfg.Epsilon)
		}
		epsAlg := cfg.Algorithm == AlgSharedBit || cfg.Algorithm == AlgSimSharedBit
		if !epsAlg || (cfg.Assignment == nil && cfg.K != cfg.N) {
			return nil, ErrEpsilonRequires
		}
	}
	if cfg.TagBits >= 2 && cfg.Algorithm != AlgSharedBit {
		return nil, ErrTagBitsRequires
	}
	if cfg.TagBits > 64 || cfg.TagBits < 0 {
		return nil, fmt.Errorf("mobilegossip: TagBits %d outside [0, 64]", cfg.TagBits)
	}
	if cfg.Algorithm == AlgCrowdedBin && cfg.Tau > 0 {
		return nil, ErrCrowdedBinTau
	}
	if cfg.Topology.Kind == 0 {
		cfg.Topology.Kind = RandomRegular
	}
	if cfg.TransferEps <= 0 {
		nf := float64(cfg.N)
		cfg.TransferEps = 1 / (nf * nf * nf)
	}

	// With a custom Assignment, K is advisory and may be anything the
	// assignment implies — the canonical placement must not even be
	// computed from it (a hostile checkpoint can carry K < 0).
	var assign core.Assignment
	if cfg.Assignment != nil {
		assign = *cfg.Assignment
	} else {
		assign = core.OneTokenPerNode(cfg.N, cfg.K)
	}
	st, err := core.NewState(cfg.N, assign, cfg.TransferEps)
	if err != nil {
		return nil, err
	}

	dyn, err := cfg.Topology.Build(cfg.N, cfg.Tau, prand.Mix64(cfg.Seed^0x6c62272e07bb0142))
	if err != nil {
		return nil, err
	}

	parts, err := buildProtocol(cfg, st)
	if err != nil {
		return nil, err
	}

	s := &Simulation{cfg: cfg, st: st, dyn: dyn, parts: parts,
		bus: events.NewBus(), lastAdvEpoch: -1}

	// Adaptive adversaries read the live token state; bind before round 1
	// so even the initial topology is shaped by the starting assignment.
	if adv, ok := dyn.(*adversary.Engine); ok {
		adv.Bind(tokenCounts{st})
		s.adv = adv
		s.lastAdvEpoch = adv.Epoch()
	}
	s.eng = mtm.NewEngine(dyn, parts.proto, mtm.Config{
		Seed:      prand.Mix64(cfg.Seed ^ 0x51afd7ed558ccd6d),
		MaxRounds: cfg.MaxRounds,
	})

	if cfg.Profile {
		s.EnableProfiling()
	}
	s.Observe(cfg.Observers...)
	return s, nil
}

// Rebind swaps the session's topology schedule at a round boundary: the
// session-layer half of phased scenarios (DESIGN.md §15). The new
// schedule is built exactly as New builds one — same node count, same
// seed derivation — and replaces the old one wholesale: subsequent
// rounds query it at the session's global round number R. Mobility models
// jump deterministically into position on the next Step: the crowd is moved
// through all R−1 skipped rounds (the trajectory is those draws: still
// linear in R, ≈ 0.3 ms a round at n = 50,000), but it is scanned, repaired
// and loaded — and perturbed by an adversary — only for rounds R−1 and R
// (DESIGN.md §8, §15). Adaptive adversaries in the new topology are bound to
// the live token state, and a topology_rebound event announces the swap.
//
// Token state, meters, RNG streams and the round counter are untouched,
// so a rebind composes with checkpoints: a snapshot taken after a rebind
// carries the new topology in its config block and resumes into the
// current phase; re-applying later phases is the caller's job (the
// scenario runner's, for spec-driven runs). Edge churn across the swap
// itself is not metered — the first post-rebind round reports only the
// churn its own schedule generates.
//
// The config seed cannot change mid-run (checkpoint identity depends on
// it), so Rebind takes only the topology and stability factor. It
// returns the validation errors New would (ErrCrowdedBinTau, topology
// build failures) and leaves the session unchanged on error.
func (s *Simulation) Rebind(topo Topology, tau int) error {
	if s.cfg.Algorithm == AlgCrowdedBin && tau > 0 {
		return ErrCrowdedBinTau
	}
	if topo.Kind == 0 {
		topo.Kind = RandomRegular
	}
	dyn, err := topo.Build(s.cfg.N, tau, prand.Mix64(s.cfg.Seed^0x6c62272e07bb0142))
	if err != nil {
		return err
	}
	s.cfg.Topology, s.cfg.Tau = topo, tau
	s.dyn = dyn
	s.adv, s.lastAdvEpoch = nil, -1
	if adv, ok := dyn.(*adversary.Engine); ok {
		adv.Bind(tokenCounts{s.st})
		s.adv = adv
		s.lastAdvEpoch = adv.Epoch()
	}
	s.eng.SetDynamic(dyn)
	s.bus.Publish(events.Event{
		Type: events.TypeTopologyRebound, Round: s.eng.Round(),
		Potential: s.st.Potential(), Topology: dyn.Name(),
	})
	return nil
}

// EnableProfiling attaches the timing sidecar at a round boundary (the
// Config.Profile knob in method form, for resumed sessions — checkpoints
// do not record it). Idempotent; profiling affects wall-clock only,
// never results. From the next Step on, the engine times every round
// into Profiler() and a round_profile event follows each
// round_completed.
func (s *Simulation) EnableProfiling() {
	if s.prof != nil {
		return
	}
	s.cfg.Profile = true
	s.prof = profile.NewRecorder()
	s.stall = profile.NewStallDetector(0, 0)
	s.eng.SetProfiler(s.prof)
}

// Profiler returns the session's timing recorder, or nil when profiling
// is off. Safe to read concurrently with a running session (the
// /metrics scrape path).
func (s *Simulation) Profiler() *profile.Recorder { return s.prof }

// Health returns the stall detector's latest convergence verdict
// (HealthUnknown when profiling is off or no round has completed).
func (s *Simulation) Health() profile.Health {
	if s.stall == nil {
		return profile.HealthUnknown
	}
	return s.stall.Health()
}

// Bus returns the session's event bus: every lifecycle event — session
// start/end/cancel, each completed round, churn, adversary epochs,
// checkpoint writes and resumes — is published on it as a typed
// events.Event (see DESIGN.md §12 for the taxonomy). Attach sinks
// (NewJSONLSink, NewMetricsCollector, NewEventRing) or subscribe
// directly; with no subscriber attached the bus costs the hot path
// nothing.
func (s *Simulation) Bus() *events.Bus { return s.bus }

// Observe attaches observers to the session. Observers attached before the
// first Step see the whole run; observers attached mid-run see the rounds
// from their attachment on (their BeginRun is skipped once the run has
// begun).
//
// Observers are delivered through the session's event bus: the first
// Observe call registers the pipeline as a synchronous, lossless bus
// subscriber, so observers and event sinks see the same stream in the
// same order.
func (s *Simulation) Observe(obs ...Observer) {
	for _, o := range obs {
		if o == nil {
			continue
		}
		if !s.fanAttached {
			s.fanAttached = true
			s.bus.SubscribeSync(events.Filter{}, s.fanOut)
		}
		s.observers = append(s.observers, o)
	}
}

// begin publishes the session-start events exactly once per process
// session (a resumed simulation announces itself again, for its freshly
// attached subscribers); the observer fan turns the start event into
// the one-time BeginRun.
func (s *Simulation) begin() {
	if s.began {
		return
	}
	s.began = true
	s.bus.Publish(events.Event{
		Type: events.TypeSessionStart, Round: s.eng.Round(), Potential: s.st.Potential(),
		N: s.cfg.N, K: s.st.K(),
		Algorithm: s.cfg.Algorithm.String(), Topology: s.dyn.Name(),
	})
	if s.resumed {
		s.bus.Publish(events.Event{
			Type: events.TypeCheckpointResumed, Round: s.eng.Round(), Potential: s.st.Potential(),
		})
	}
}

// finish publishes the session-end event exactly once; the observer fan
// turns it into the one-time EndRun.
func (s *Simulation) finish() {
	if s.finished {
		return
	}
	s.finished = true
	res := s.Result()
	s.bus.Publish(events.Event{
		Type: events.TypeSessionEnd, Round: res.Rounds, Potential: res.FinalPotential,
		Solved: res.Solved, N: s.cfg.N, K: s.st.K(),
		Algorithm: res.Algorithm.String(), Topology: res.Topology,
		Connections: res.Connections, Proposals: res.Proposals,
		ControlBits: res.ControlBits, TokensMoved: res.TokensMoved,
		EdgesAdded: int(res.EdgesAdded), EdgesRemoved: int(res.EdgesRemoved),
	})
}

// Step executes exactly one round, feeds the observers, and returns the
// round's stats. Once the run is over (Done reports true) Step returns
// ErrSimulationDone — or the original failure, if an earlier round
// violated a model contract.
func (s *Simulation) Step() (RoundStats, error) {
	if s.eng.Finished() {
		if err := s.eng.Failed(); err != nil {
			return RoundStats{Round: s.eng.Round()}, err
		}
		s.finish()
		return RoundStats{Round: s.eng.Round(), Done: s.Done()}, ErrSimulationDone
	}
	s.begin()
	es, err := s.eng.Step()
	if err != nil {
		return RoundStats{Round: es.Round}, err
	}
	stats := RoundStats{
		Round:        es.Round,
		Potential:    s.st.Potential(),
		Connections:  es.Connections,
		Proposals:    es.Proposals,
		ControlBits:  es.ControlBits,
		TokensMoved:  es.TokensMoved,
		EdgesAdded:   es.EdgesAdded,
		EdgesRemoved: es.EdgesRemoved,
		Done:         es.Done,
	}
	// Per-round events, causal order: the topology perturbations that
	// shaped the round precede its completion summary. The observer
	// pipeline rides the same bus (see fanOut).
	if s.adv != nil {
		if e := s.adv.Epoch(); e != s.lastAdvEpoch {
			s.lastAdvEpoch = e
			s.bus.Publish(events.Event{Type: events.TypeAdversaryEpoch, Round: es.Round, Epoch: e})
		}
	}
	if es.EdgesAdded != 0 || es.EdgesRemoved != 0 {
		s.bus.Publish(events.Event{
			Type: events.TypeChurnApplied, Round: es.Round,
			EdgesAdded: es.EdgesAdded, EdgesRemoved: es.EdgesRemoved,
		})
	}
	s.bus.Publish(events.Event{
		Type: events.TypeRoundCompleted, Round: stats.Round, Potential: stats.Potential,
		Connections: int64(stats.Connections), Proposals: int64(stats.Proposals),
		ControlBits: stats.ControlBits, TokensMoved: stats.TokensMoved,
		EdgesAdded: stats.EdgesAdded, EdgesRemoved: stats.EdgesRemoved,
		Done: stats.Done,
	})
	if s.prof != nil {
		rp := s.prof.Last()
		h := s.stall.Observe(stats.Round, stats.Potential)
		s.bus.Publish(events.Event{
			Type: events.TypeRoundProfile, Round: stats.Round,
			RoundNanos:     rp.TotalNs,
			ChurnNanos:     rp.PhaseNs[profile.PhaseChurn],
			ProposalNanos:  rp.PhaseNs[profile.PhaseProposal],
			ExchangeNanos:  rp.PhaseNs[profile.PhaseExchange],
			ReductionNanos: rp.PhaseNs[profile.PhaseReduction],
			Workers:        rp.Workers,
			ImbalanceMilli: rp.ImbalanceMilli(),
			BarrierNanos:   rp.BarrierNs,
			Health:         h.String(),
		})
	}
	if s.eng.Finished() {
		s.finish()
	}
	return stats, nil
}

// Run steps the simulation to completion, checking ctx between rounds. On
// cancellation it returns the partial Result along with the context's
// error; the simulation remains at a round boundary and stays fully
// usable — step it further, Run again, or Checkpoint it.
func (s *Simulation) Run(ctx context.Context) (Result, error) {
	for !s.eng.Finished() {
		if err := ctx.Err(); err != nil {
			s.bus.Publish(events.Event{
				Type: events.TypeSessionCancel, Round: s.eng.Round(), Potential: s.st.Potential(),
			})
			return s.Result(), err
		}
		if _, err := s.Step(); err != nil {
			return s.Result(), err
		}
	}
	// A run poisoned by an earlier model-contract violation must not
	// report success (or fire EndRun) on a later Run call.
	if err := s.eng.Failed(); err != nil {
		return s.Result(), err
	}
	s.finish()
	if s.eng.OverBudget() {
		return s.Result(), ErrBudgetExceeded
	}
	return s.Result(), nil
}

// Done reports whether the run is over: the objective was reached or
// MaxRounds elapsed. Result().Solved distinguishes the two.
func (s *Simulation) Done() bool {
	return s.eng.Finished()
}

// Round returns the number of rounds executed so far (counted from the
// checkpoint's round after a Resume — round numbering is global to the
// logical run, not to the process).
func (s *Simulation) Round() int { return s.eng.Round() }

// Potential returns the current potential φ = Σ_u (k − |T_u|).
func (s *Simulation) Potential() int { return s.st.Potential() }

// TokenCount returns the number of tokens node u currently knows.
func (s *Simulation) TokenCount(u int) int { return s.st.Set(u).Len() }

// N returns the network size.
func (s *Simulation) N() int { return s.st.N() }

// K returns the token count.
func (s *Simulation) K() int { return s.st.K() }

// Config returns the (normalized) configuration the session runs.
func (s *Simulation) Config() Config { return s.cfg }

// Result returns the run summary so far; it is final once Done reports
// true, and a valid partial summary at any round boundary before that.
func (s *Simulation) Result() Result {
	rr := s.eng.Result()
	return Result{
		Algorithm:      s.cfg.Algorithm,
		Topology:       s.dyn.Name(),
		Solved:         rr.Completed,
		Rounds:         rr.Rounds,
		Connections:    rr.Connections,
		Proposals:      rr.Proposals,
		ControlBits:    rr.ControlBits,
		TokensMoved:    rr.TokensMoved,
		EdgesAdded:     rr.EdgesAdded,
		EdgesRemoved:   rr.EdgesRemoved,
		FinalPotential: s.st.Potential(),
	}
}
