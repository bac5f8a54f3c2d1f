// Package daemon is the gossipd service core: it multiplexes many
// concurrent simulation sessions — the stateful Step/Run/Checkpoint
// sessions of the public API — behind an HTTP+JSON surface (the v1 wire
// format defined in the client package), so experiment grids can be
// driven, observed, checkpointed and resumed remotely.
//
// Three mechanisms make one daemon hold far more sessions than one
// process could naively run (DESIGN.md §14):
//
//   - A bounded-worker scheduler executes run requests as round slices:
//     a job steps its session at most sliceRounds rounds, then requeues
//     at the tail, so hundreds of concurrent sessions share the worker
//     pool fairly instead of the first arrivals monopolizing it. The
//     pool is gossipd -workers wide (GOMAXPROCS by default).
//
//   - Checkpoint-backed eviction serializes idle sessions to disk via
//     the public Checkpoint/Resume machinery (CheckpointFile/ResumeFile)
//     and transparently revives them on the next touch. Eviction is
//     invisible in every observable: results, checkpoint downloads and
//     recorded event streams are byte-identical to a never-evicted run.
//
//   - Per-session event recording and a daemon-wide metrics collector
//     ride the event bus: each session's lifecycle stream is recorded
//     losslessly to the state directory (served by the events endpoint
//     as an NDJSON replay, and followed by tailing the same file), and
//     one events.Collector aggregates every session's meters into
//     /metrics next to the scheduler's own gauges.
package daemon
