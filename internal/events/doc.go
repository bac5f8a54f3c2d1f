// Package events is the simulation's structured observability layer: a
// publish/subscribe bus carrying typed, versioned session events (see
// Type for the taxonomy), with per-subscriber filters, and three
// provided sinks — a JSONL stream writer (JSONLSink), an in-memory ring
// buffer with a query API (Ring), and a Prometheus-style text exporter
// (Collector).
//
// The session layer (mobilegossip.Simulation) owns one Bus per run and
// publishes every lifecycle event on it; the public package re-exports
// this surface (mobilegossip.EventBus and friends), and the gossipsim
// CLI exposes it as -events (JSONL) and -metrics (HTTP scrape endpoint).
//
// # The zero-alloc contract
//
// Publish sits on the engine's hot path: it is called several times per
// simulation round. With no subscriber attached it must cost nothing —
// one atomic load, no locks, no heap allocations — so the engine's
// 0 allocs/op round contract survives the bus being plumbed in. With
// subscribers attached, delivery still never allocates: events are flat
// value structs handed to handlers inline, and the JSONL sink encodes
// into a reused buffer. Both cases are pinned by the gated
// bus-detached/bus-attached rows of BenchmarkEngineRound (see
// DESIGN.md §12).
//
// # Delivery semantics
//
// There is one delivery regime. Subscribers (SubscribeSync, and the
// JSONLSink, Ring and Collector sinks built on it) run inline on the
// publishing goroutine, in registration order, and see every matching
// event: no queue, no drops. They trade publisher latency for
// losslessness, so handlers must be fast and must not call back into
// the Bus. A consumer that must not slow the simulation reads a record
// afterwards instead — gossipd's followers tail the session's recorded
// JSONL file.
package events
