// Package profile is the engine's deterministic-safe profiling layer: a
// read-only timing sidecar that the round engine (internal/mtm) feeds with
// per-phase wall-clock spans when profiling is enabled, aggregated here
// into log-bucketed histograms and a convergence/stall health signal.
//
// The contract (DESIGN.md §13): profiling never affects simulation
// output — it draws no randomness, mutates no engine state, and its
// measurements flow strictly outward (events, metrics, reports). With
// profiling off the engine pays a handful of predicted nil checks per
// round and nothing else; with it on, the cost is clock reads — the
// engine's 0 allocs/op contract holds either way.
package profile

import "sync"

// Phase identifies one timed segment of an engine round, in execution
// order.
type Phase uint8

// The engine's timed round phases.
const (
	// PhaseChurn: advancing the topology schedule to the round's graph
	// and applying/accounting its edge delta.
	PhaseChurn Phase = iota
	// PhaseProposal: the proposal machinery — advertise tags, scan and
	// decide, deliver proposals into the flat inbox, draw acceptances.
	PhaseProposal
	// PhaseExchange: pairwise communication over the accepted
	// connections plus the per-connection meter fold.
	PhaseExchange
	// PhaseReduction: cross-shard reductions. A round runs on one
	// goroutine, so it is always 0; the phase stays for event schema 3.
	PhaseReduction

	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseChurn:     "churn",
	PhaseProposal:  "proposal",
	PhaseExchange:  "exchange",
	PhaseReduction: "reduction",
}

// String returns the phase's wire name (used in event fields and metric
// names).
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Phases enumerates every phase in execution order.
func Phases() []Phase {
	return []Phase{PhaseChurn, PhaseProposal, PhaseExchange, PhaseReduction}
}

// RoundProfile is the timing record of one executed round. It is a flat
// value struct (no pointers), so the engine hands it over and the
// session turns it into an event without heap traffic.
type RoundProfile struct {
	// Round is the 1-based round the record describes.
	Round int
	// TotalNs is the round's wall-clock time in nanoseconds.
	TotalNs int64
	// PhaseNs breaks TotalNs down by Phase (the remainder — bookkeeping
	// outside any phase — is not attributed).
	PhaseNs [NumPhases]int64
	// Workers, the shard summaries and BarrierNs describe a round split
	// into per-phase shards. No round is, so Record stamps Workers 1 and
	// the rest read 0; the fields stay for event schema 3 and the readers
	// of older event files.
	Workers     int
	MaxShardNs  int64
	MinShardNs  int64
	MeanShardNs int64
	BarrierNs   int64
}

// ImbalanceMilli returns the shard imbalance ratio — max over mean shard
// compute time — in thousandths (1000 = perfectly balanced; 0 when the
// round ran sequentially or shards did no measurable work).
func (rp *RoundProfile) ImbalanceMilli() int64 {
	if rp.Workers <= 1 || rp.MeanShardNs <= 0 {
		return 0
	}
	return rp.MaxShardNs * 1000 / rp.MeanShardNs
}

// Recorder aggregates RoundProfile records into histograms and retains
// the latest record. The engine calls Record once per round from the
// stepping goroutine; every read-side method is safe to call
// concurrently (the /metrics scrape path), so a recorder can be
// inspected live mid-run.
type Recorder struct {
	roundLatency Histogram
	phaseLatency [NumPhases]Histogram
	ckptWrite    Histogram // checkpoint serialization, ns

	mu   sync.Mutex
	last RoundProfile
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record folds one round's timing into the histograms and retains it as
// the latest record, stamped with its one worker. It never allocates.
func (r *Recorder) Record(rp RoundProfile) {
	r.roundLatency.Record(rp.TotalNs)
	for p := Phase(0); p < NumPhases; p++ {
		r.phaseLatency[p].Record(rp.PhaseNs[p])
	}
	rp.Workers = 1
	r.mu.Lock()
	r.last = rp
	r.mu.Unlock()
}

// RecordCheckpointWrite folds one checkpoint serialization time (ns)
// into the checkpoint-write histogram.
func (r *Recorder) RecordCheckpointWrite(ns int64) { r.ckptWrite.Record(ns) }

// Last returns the most recent round's record (the zero RoundProfile
// before any round ran).
func (r *Recorder) Last() RoundProfile {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// Rounds returns the number of rounds recorded.
func (r *Recorder) Rounds() int64 { return r.roundLatency.Count() }

// RoundLatency returns the round wall-time histogram (ns).
func (r *Recorder) RoundLatency() *Histogram { return &r.roundLatency }

// PhaseLatency returns the per-round wall-time histogram (ns) of one
// phase.
func (r *Recorder) PhaseLatency(p Phase) *Histogram {
	if p >= NumPhases {
		p = 0
	}
	return &r.phaseLatency[p]
}

// CheckpointWrite returns the checkpoint serialization-time histogram
// (ns).
func (r *Recorder) CheckpointWrite() *Histogram { return &r.ckptWrite }
