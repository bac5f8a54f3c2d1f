// Package mobilegossip is a library reproduction of Calvin Newport's
// "Gossip in a Smartphone Peer-to-Peer Network" (PODC 2017): the mobile
// telephone model of smartphone peer-to-peer networking and the paper's
// gossip algorithms — BlindMatch (b = 0), SharedBit and SimSharedBit
// (b = 1, dynamic topologies), CrowdedBin (b = 1, stable topologies), and
// SharedBit's relaxed ε-gossip mode.
//
// # Running a simulation
//
// The package-level Run function covers the common case — pick an
// algorithm, a topology family, sizes and a seed, and get round/connection
// counts back:
//
//	res, err := mobilegossip.Run(mobilegossip.Config{
//	    Algorithm: mobilegossip.AlgSharedBit,
//	    N:         128,
//	    K:         16,
//	    Topology:  mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4},
//	    Seed:      1,
//	})
//
// Callers that need to own the loop use the stateful session API instead:
// New builds a *Simulation, Step executes one round, Run(ctx) steps to
// completion under context cancellation, subscribers to its event bus
// (Simulation.Bus) watch the run, and Checkpoint/Resume serialize the
// complete deterministic state so a run can be revived — in this process
// or another — byte-identically to an uninterrupted execution. See
// DESIGN.md §9 for the session lifecycle and checkpoint format.
//
// # Observability
//
// Every session publishes its lifecycle on a typed event bus
// (Simulation.Bus): session start/end/cancel, one round_completed event
// per round, topology churn, adversary epochs, and checkpoint
// writes/resumes. SubscribeSync with a filter runs a handler inline on
// every matching event, lossless — appending to a slice is an in-memory
// record of the run — or attach the provided sinks: NewJSONLSink for a
// streaming JSONL log, NewMetricsCollector for a Prometheus-style
// /metrics exporter (served by gossipsim -metrics). The bus costs the
// simulation hot path nothing while no subscriber is attached — a
// contract enforced by the gated bus-attached/bus-detached benchmark
// rows. The event taxonomy and wire format are documented in DESIGN.md
// §12.
//
// The internal packages expose the full machinery (engine, graph
// generators, dynamic schedules, Transfer(ε), leader election, PPUSH) for
// programs within this module; see DESIGN.md for the map.
package mobilegossip
