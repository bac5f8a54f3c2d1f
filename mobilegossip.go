// The package documentation lives in doc.go; this file holds the
// algorithm/config/result surface.
package mobilegossip

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"mobilegossip/internal/core"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
)

// Algorithm selects one of the paper's gossip algorithms.
type Algorithm int

// The gossip algorithms of the paper (Figure 1).
const (
	// AlgBlindMatch: b = 0, τ ≥ 1 — O((1/α)·k·Δ²·log²n) (§4).
	AlgBlindMatch Algorithm = iota + 1
	// AlgSharedBit: b = 1, τ ≥ 1, shared randomness — O(kn) (§5.1).
	AlgSharedBit
	// AlgSimSharedBit: b = 1, τ ≥ 1 — O(kn + (1/α)·Δ^{1/τ}·log⁶n) (§5.2).
	AlgSimSharedBit
	// AlgCrowdedBin: b = 1, τ = ∞ — O((1/α)·k·log⁶n) (§6).
	AlgCrowdedBin
)

// algNames is the algorithms' name table, indexed by value.
var algNames = [...]string{
	AlgBlindMatch: "blindmatch", AlgSharedBit: "sharedbit",
	AlgSimSharedBit: "simsharedbit", AlgCrowdedBin: "crowdedbin",
}

// Algorithms enumerates every built-in algorithm, in declaration order.
// CLIs and error messages use it so the list of valid names has a single
// source of truth.
func Algorithms() []Algorithm { return enumValues(algNames[:], AlgBlindMatch) }

// AlgorithmNames returns the parseable names of Algorithms, in order.
func AlgorithmNames() []string { return slices.Clone(algNames[AlgBlindMatch:]) }

// String returns the algorithm's name.
func (a Algorithm) String() string { return enumName(algNames[:], a, "Algorithm") }

// ParseAlgorithm resolves an algorithm name (as printed by String).
func ParseAlgorithm(s string) (Algorithm, error) {
	if a, ok := parseEnum[Algorithm](algNames[:], s); ok {
		return a, nil
	}
	return 0, fmt.Errorf("mobilegossip: unknown algorithm %q (valid: %s)",
		s, strings.Join(AlgorithmNames(), ", "))
}

// enumValues lists the values from first up that a name table indexed by
// value names.
func enumValues[E ~int](names []string, first E) []E {
	vals := make([]E, 0, len(names)-int(first))
	for v := first; int(v) < len(names); v++ {
		vals = append(vals, v)
	}
	return vals
}

// enumName returns v's entry in its name table, or typ(v) for a value the
// table does not name.
func enumName[E ~int](names []string, v E, typ string) string {
	if v >= 0 && int(v) < len(names) && names[v] != "" {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", typ, int(v))
}

// parseEnum resolves a name by walking its table in value order.
func parseEnum[E ~int](names []string, s string) (E, bool) {
	v := slices.Index(names, s)
	return E(v), s != "" && v >= 0
}

// Config parameterizes one gossip run.
type Config struct {
	// Algorithm selects the protocol.
	Algorithm Algorithm
	// N is the network size (> 1).
	N int
	// K is the token count, 1 ≤ K ≤ N; tokens are placed one per node on
	// the first K nodes (the paper's canonical setup). Use Assignment for
	// custom placements.
	K int
	// Assignment overrides the canonical placement when non-empty.
	Assignment *core.Assignment
	// Topology picks the topology family.
	Topology Topology
	// Tau is the stability factor: 0 means τ = ∞ (static); τ ≥ 1 redraws
	// the topology every τ rounds. AlgCrowdedBin requires a static
	// topology.
	Tau int
	// Epsilon, when in (0, 1), relaxes the objective to ε-gossip and
	// requires K = N. Supported by AlgSharedBit (§7, Theorem 7.4) and
	// AlgSimSharedBit (Corollary 7.5).
	Epsilon float64
	// TagBits, when ≥ 2 with AlgSharedBit, runs the b-bit generalization
	// of the advertisement (see core.SharedBit): different token sets then
	// yield different tags with probability 1 − 2^{−b} instead of 1/2.
	// 0 and 1 select the paper's standard 1-bit algorithm.
	TagBits int
	// Seed determines the entire execution (0 is a valid seed).
	Seed uint64
	// MaxRounds aborts unfinished runs (default 2^22).
	MaxRounds int
	// EngineWorkers is accepted and ignored: a round's exchanges follow
	// GOMAXPROCS (DESIGN.md §5 "The exchange fans out"). It is kept so
	// existing callers compile, and is not part of the checkpoint.
	EngineWorkers int
	// Profile attaches the timing sidecar (internal/profile, DESIGN.md
	// §13): per-round phase spans aggregated into histograms, a
	// round_profile event after every round, and the convergence/stall
	// health verdict. Profiling reads the wall clock only — simulation
	// output is byte-identical with it on or off — and it is not part of
	// the checkpoint: re-enable on a resumed session with EnableProfiling.
	Profile bool
	// TransferEps is the per-call Transfer(ε) failure bound
	// (default n^{-3}).
	TransferEps float64
	// CrowdedBin tunes the §6 schedule constants.
	CrowdedBin core.CrowdedBinConfig
}

// Result reports a finished (or aborted) run.
type Result struct {
	// Algorithm and topology echo the configuration.
	Algorithm Algorithm
	Topology  string
	// Solved reports whether the objective (gossip or ε-gossip) was reached.
	Solved bool
	// Rounds is the number of rounds executed.
	Rounds int
	// Connections, Proposals, ControlBits, TokensMoved are totals over the
	// run as metered by the engine.
	Connections int64
	Proposals   int64
	ControlBits int64
	TokensMoved int64
	// EdgesAdded and EdgesRemoved total the topology churn over the run,
	// as reported by delta-capable dynamic schedules (the mobility kinds);
	// 0 for static and regenerating schedules.
	EdgesAdded   int64
	EdgesRemoved int64
	// FinalPotential is φ at the end (0 when fully solved).
	FinalPotential int
}

// Errors returned by Run for invalid configurations.
var (
	ErrBadN            = errors.New("mobilegossip: N must be at least 2")
	ErrBadK            = errors.New("mobilegossip: K must be in [1, N]")
	ErrEpsilonRequires = errors.New("mobilegossip: Epsilon requires AlgSharedBit or AlgSimSharedBit, and K = N")
	ErrCrowdedBinTau   = errors.New("mobilegossip: AlgCrowdedBin requires a static topology (Tau = 0)")
	ErrTagBitsRequires = errors.New("mobilegossip: TagBits >= 2 requires AlgSharedBit")
)

// Run executes one gossip simulation described by cfg: a thin wrapper over
// New + Simulation.Run with a background context, preserved for the common
// blocking case. Callers that need to own the loop — step, observe,
// cancel, checkpoint, resume — use New directly.
func Run(cfg Config) (Result, error) {
	sim, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return sim.Run(context.Background())
}

// protoParts is the assembled protocol stack with typed references to the
// layers that carry checkpointable state.
type protoParts struct {
	proto  mtm.Protocol        // the outermost protocol the engine drives
	shared *prand.SharedString // SharedBit's shared string (key check)
	ssb    *core.SimSharedBit  // election state
	cb     *core.CrowdedBin    // schedule state
	eps    *core.EpsilonGossip // relaxed-objective state
}

// buildProtocol assembles the configured algorithm over st.
func buildProtocol(cfg Config, st *core.State) (protoParts, error) {
	var parts protoParts
	switch cfg.Algorithm {
	case AlgBlindMatch:
		parts.proto = core.NewBlindMatch(st)
	case AlgSharedBit:
		parts.shared = prand.NewSharedString(prand.Mix64(cfg.Seed ^ 0xb492b66fbe98f273))
		sb, err := core.NewSharedBit(st, parts.shared, max(1, cfg.TagBits))
		if err != nil {
			return parts, err
		}
		parts.proto = sb
		if cfg.Epsilon != 0 {
			parts.eps = core.NewEpsilonOver(sb, cfg.Epsilon, 1)
			parts.proto = parts.eps
		}
	case AlgSimSharedBit:
		space := prand.NewSeedSpace(st.Universe())
		seeds := core.SampleSeeds(space, st.N(),
			prand.New(prand.Mix64(cfg.Seed^0x2545f4914f6cdd1d)))
		parts.ssb = core.NewSimSharedBit(st, space, seeds)
		parts.proto = parts.ssb
		if cfg.Epsilon != 0 {
			parts.eps = core.NewEpsilonOver(parts.ssb, cfg.Epsilon, 1)
			parts.proto = parts.eps
		}
	case AlgCrowdedBin:
		cb, err := core.NewCrowdedBin(st, cfg.CrowdedBin,
			prand.New(prand.Mix64(cfg.Seed^0x9fb21c651e98df25)))
		if err != nil {
			return parts, err
		}
		parts.cb = cb
		parts.proto = cb
	default:
		return parts, fmt.Errorf("mobilegossip: unknown algorithm %v", cfg.Algorithm)
	}
	return parts, nil
}
