// Package wire is the one codec between the gossipd v1 wire shapes
// (client.*: plain data, enums as their CLI names) and the root package's
// typed Config/Topology/Result. The daemon lowers create and rebind
// requests through it, the scenario driver lowers specs through it for
// in-process runs, and gossipsim raises its flag-built Config through it
// for -remote — so a field added to one side and not the other fails this
// package's round-trip test instead of a CI shell job. The topology's
// command-line form is lowered here too (TopologyFlags), for gossipsim
// and graphinfo alike.
package wire

import (
	"mobilegossip"
	"mobilegossip/client"
	"mobilegossip/internal/core"
	"mobilegossip/internal/outcome"
)

// TopologyFromWire resolves the enum names with the same Parse* functions
// the gossipsim flags use, so a name error lists the valid values.
func TopologyFromWire(spec client.TopologySpec) (mobilegossip.Topology, error) {
	kind, err := mobilegossip.ParseTopologyKind(spec.Kind)
	if err != nil {
		return mobilegossip.Topology{}, err
	}
	// The optional enum is omitted on the wire when none: "" parses to
	// none.
	adv, err := mobilegossip.ParseAdversaryKind(spec.Adversary)
	if err != nil {
		return mobilegossip.Topology{}, err
	}
	return mobilegossip.Topology{
		Kind: kind, Degree: spec.Degree, P: spec.P,
		Rows: spec.Rows, Cols: spec.Cols,
		CliqueSize: spec.CliqueSize, PathLen: spec.PathLen,
		Radius: spec.Radius, Attach: spec.Attach,
		Speed: spec.Speed, Pause: spec.Pause, LevyAlpha: spec.LevyAlpha,
		Groups: spec.Groups, Attract: spec.Attract, Period: spec.Period,
		Adversary: adv, AdvBudget: spec.AdvBudget,
		AdvParts: spec.AdvParts, AdvPeriod: spec.AdvPeriod,
	}, nil
}

// TopologyToWire is TopologyFromWire's inverse.
func TopologyToWire(t mobilegossip.Topology) client.TopologySpec {
	return client.TopologySpec{
		Kind: t.Kind.String(), Degree: t.Degree, P: t.P,
		Rows: t.Rows, Cols: t.Cols,
		CliqueSize: t.CliqueSize, PathLen: t.PathLen,
		Radius: t.Radius, Attach: t.Attach,
		Speed: t.Speed, Pause: t.Pause, LevyAlpha: t.LevyAlpha,
		Groups: t.Groups, Attract: t.Attract, Period: t.Period,
		Adversary: t.Adversary.String(), AdvBudget: t.AdvBudget,
		AdvParts: t.AdvParts, AdvPeriod: t.AdvPeriod,
	}
}

// ConfigFromWire assembles the Config a create request describes. Numeric
// validation stays with mobilegossip.New — the codec adds no second
// opinion on what a valid Config is.
func ConfigFromWire(req client.CreateRequest) (mobilegossip.Config, error) {
	alg, err := mobilegossip.ParseAlgorithm(req.Algorithm)
	if err != nil {
		return mobilegossip.Config{}, err
	}
	topo, err := TopologyFromWire(req.Topology)
	if err != nil {
		return mobilegossip.Config{}, err
	}
	return mobilegossip.Config{
		Algorithm: alg, N: req.N, K: req.K, Topology: topo,
		Tau: req.Tau, Epsilon: req.Epsilon, TagBits: req.TagBits,
		Seed: req.Seed, MaxRounds: req.MaxRounds,
		Profile: req.Profile, TransferEps: req.TransferEps,
		CrowdedBin: core.CrowdedBinConfig{Beta: req.CrowdedBinBeta, Gamma: req.CrowdedBinGamma},
	}, nil
}

// ConfigToWire is ConfigFromWire's inverse over Config's data fields (the
// process-local Assignment has no wire form);
// recordEvents is the one request field Config does not carry.
func ConfigToWire(cfg mobilegossip.Config, recordEvents bool) client.CreateRequest {
	return client.CreateRequest{
		Algorithm: cfg.Algorithm.String(), N: cfg.N, K: cfg.K,
		Topology: TopologyToWire(cfg.Topology),
		Tau:      cfg.Tau, Epsilon: cfg.Epsilon, TagBits: cfg.TagBits,
		Seed: cfg.Seed, MaxRounds: cfg.MaxRounds,
		Profile: cfg.Profile, TransferEps: cfg.TransferEps,
		CrowdedBinBeta: cfg.CrowdedBin.Beta, CrowdedBinGamma: cfg.CrowdedBin.Gamma,
		RecordEvents: recordEvents,
	}
}

// ResultToWire renders a Result (final or partial) for the session info
// describes.
func ResultToWire(r mobilegossip.Result, info client.SessionInfo) client.RunResult {
	return client.RunResult{
		Session:   info,
		Algorithm: r.Algorithm.String(), Topology: r.Topology,
		Solved: r.Solved, Rounds: r.Rounds,
		Connections: r.Connections, Proposals: r.Proposals,
		ControlBits: r.ControlBits, TokensMoved: r.TokensMoved,
		EdgesAdded: r.EdgesAdded, EdgesRemoved: r.EdgesRemoved,
		FinalPotential: r.FinalPotential,
	}
}

// RunOutcome projects a wire result onto the summary expect blocks are
// evaluated against.
func RunOutcome(res client.RunResult) outcome.Run {
	return outcome.Run{
		N: res.Session.N, K: res.Session.K,
		Solved: res.Solved, Rounds: res.Rounds,
		FinalPotential: res.FinalPotential, TokensMoved: res.TokensMoved,
		EdgesAdded: res.EdgesAdded, EdgesRemoved: res.EdgesRemoved,
	}
}
