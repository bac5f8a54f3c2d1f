package mobilegossip

import "mobilegossip/internal/profile"

// The profiling surface, re-exported from internal/profile so library
// callers can name what Simulation.Profiler and Simulation.Health hand
// out. The implementation — log-bucketed histograms, the per-round
// timing record, the stall detector — and the overhead contract live in
// internal/profile; the architecture is DESIGN.md §13. Enable with
// Config.Profile or Simulation.EnableProfiling.
type (
	// Profiler aggregates per-round timing into histograms; one is
	// attached to each profiled session.
	Profiler = profile.Recorder
	// ProfileHistogram is a lock-free log-bucketed latency histogram.
	ProfileHistogram = profile.Histogram
	// RoundProfile is the timing record of one executed round.
	RoundProfile = profile.RoundProfile
	// ProfilePhase identifies one timed segment of an engine round.
	ProfilePhase = profile.Phase
	// SessionHealth is the stall detector's convergence verdict.
	SessionHealth = profile.Health
)

// The engine's timed round phases, in execution order.
const (
	PhaseChurn     = profile.PhaseChurn
	PhaseProposal  = profile.PhaseProposal
	PhaseExchange  = profile.PhaseExchange
	PhaseReduction = profile.PhaseReduction
)

// The session health states (see SessionHealth).
const (
	HealthUnknown    = profile.HealthUnknown
	HealthConverging = profile.HealthConverging
	HealthPlateaued  = profile.HealthPlateaued
	HealthStalled    = profile.HealthStalled
)

// ProfilePhases enumerates the engine's timed round phases in execution
// order.
func ProfilePhases() []ProfilePhase { return profile.Phases() }
