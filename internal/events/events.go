package events

import (
	"fmt"
	"strconv"
	"strings"
)

// Schema is the wire-format version stamped on every serialized event
// (the "v" field of the JSONL encoding). Bump it when the meaning or
// encoding of an existing field changes or a new event type appears;
// adding fields to an existing type is backward compatible and does not
// bump the schema. Readers (UnmarshalEvent) accept every version from 1
// through Schema.
//
// Version history:
//
//	1 — the PR 7 taxonomy: session_start through session_end.
//	2 — round_profile event; write_ns on checkpoint_written.
//	3 — topology_rebound event (phased scenarios swapping the schedule
//	    mid-run, see Simulation.Rebind and DESIGN.md §15).
const Schema = 3

// Type identifies one kind of session event. The full taxonomy — which
// fields each type carries and where it is emitted — is tabulated in
// DESIGN.md §12.
type Type uint8

// The session event taxonomy, in lifecycle order.
const (
	// TypeSessionStart fires once, before the first round this process
	// executes (after a resume too). Carries N, K, Algorithm, Topology
	// and the starting Round/Potential.
	TypeSessionStart Type = iota + 1
	// TypeCheckpointResumed fires once, right after TypeSessionStart,
	// when the session was revived from a checkpoint rather than built
	// fresh. Round/Potential are the checkpoint's.
	TypeCheckpointResumed
	// TypeRoundCompleted fires after every executed round with that
	// round's meters (the event form of mobilegossip.RoundStats).
	TypeRoundCompleted
	// TypeChurnApplied fires before TypeRoundCompleted on rounds whose
	// topology changed, with the edge delta entering the round.
	TypeChurnApplied
	// TypeAdversaryEpoch fires before TypeRoundCompleted on rounds where
	// an adversarial schedule advanced to a new perturbation epoch.
	TypeAdversaryEpoch
	// TypeCheckpointWritten fires when Simulation.Checkpoint serializes
	// the session, at the round boundary the snapshot captures.
	TypeCheckpointWritten
	// TypeSessionCancel fires when Run observes context cancellation;
	// the session stays resumable and no TypeSessionEnd follows yet.
	TypeSessionCancel
	// TypeSessionEnd fires once, when the run is over (objective reached
	// or MaxRounds exhausted), with the run totals.
	TypeSessionEnd
	// TypeRoundProfile fires after TypeRoundCompleted on profiled
	// sessions (Config.Profile) with the round's timing breakdown:
	// wall time, per-phase spans, and the stall detector's health
	// verdict. Schema 2; appended after the v1 types so their wire numbers
	// are unchanged.
	TypeRoundProfile
	// TypeTopologyRebound fires when Simulation.Rebind swaps the topology
	// schedule at a round boundary (a phased scenario entering its next
	// phase). Round/Potential are the boundary's; Topology is the new
	// schedule's self-description. Schema 3; appended after the v2 types
	// so their wire numbers are unchanged.
	TypeTopologyRebound

	numTypes
)

var typeNames = [numTypes]string{
	TypeSessionStart:      "session_start",
	TypeCheckpointResumed: "checkpoint_resumed",
	TypeRoundCompleted:    "round_completed",
	TypeChurnApplied:      "churn_applied",
	TypeAdversaryEpoch:    "adversary_epoch",
	TypeCheckpointWritten: "checkpoint_written",
	TypeSessionCancel:     "session_cancel",
	TypeSessionEnd:        "session_end",
	TypeRoundProfile:      "round_profile",
	TypeTopologyRebound:   "topology_rebound",
}

// Types enumerates every event type, in declaration (lifecycle) order.
// DESIGN.md's taxonomy table and the docs-verify tooling key off it so
// the documented list has a single source of truth.
func Types() []Type {
	out := make([]Type, 0, numTypes-1)
	for t := Type(1); t < numTypes; t++ {
		out = append(out, t)
	}
	return out
}

// String returns the type's wire name (the "type" field of the JSONL
// encoding).
func (t Type) String() string {
	if t >= 1 && t < numTypes {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// ParseType resolves a wire name back to its Type.
func ParseType(s string) (Type, error) {
	for t := Type(1); t < numTypes; t++ {
		if typeNames[t] == s {
			return t, nil
		}
	}
	names := make([]string, 0, numTypes-1)
	for t := Type(1); t < numTypes; t++ {
		names = append(names, typeNames[t])
	}
	return 0, fmt.Errorf("events: unknown event type %q (valid: %s)",
		s, strings.Join(names, ", "))
}

// Event is one typed session event. It is a flat value struct — no
// pointers, maps or nested allocations — so publishing copies it onto a
// channel or stack without touching the heap. Which fields are
// meaningful depends on Type (zero values otherwise); the taxonomy
// table in DESIGN.md §12 is the authoritative map.
type Event struct {
	// Type selects the event kind and which of the fields below carry
	// meaning.
	Type Type
	// Round is the round boundary the event describes: the round just
	// executed (TypeRoundCompleted and the per-round events preceding
	// it), the checkpointed round, or the session's current round.
	Round int
	// Potential is φ = Σ_u (k − |T_u|) at that boundary.
	Potential int

	// Per-round meters (TypeRoundCompleted) and run totals
	// (TypeSessionEnd).
	Connections int64
	Proposals   int64
	ControlBits int64
	TokensMoved int64

	// Edge churn entering the round (TypeChurnApplied,
	// TypeRoundCompleted) or totaled over the run (TypeSessionEnd).
	EdgesAdded   int
	EdgesRemoved int

	// Done reports whether this round reached the objective
	// (TypeRoundCompleted).
	Done bool

	// Session identity (TypeSessionStart, TypeSessionEnd). Topology also
	// carries the new schedule's self-description on
	// TypeTopologyRebound.
	N         int
	K         int
	Algorithm string
	Topology  string

	// Solved reports whether the objective was reached
	// (TypeSessionEnd).
	Solved bool

	// Epoch is the adversary perturbation epoch just entered
	// (TypeAdversaryEpoch).
	Epoch int

	// Round timing (TypeRoundProfile; schema 2). RoundNanos is the
	// round's wall time; the four phase fields break it down (see
	// internal/profile.Phase). Workers, ImbalanceMilli and BarrierNanos
	// described a round split across goroutines; a round runs on one, so
	// they read 1/0/0 and stay for older event files.
	RoundNanos     int64
	ChurnNanos     int64
	ProposalNanos  int64
	ExchangeNanos  int64
	ReductionNanos int64
	Workers        int
	ImbalanceMilli int64
	BarrierNanos   int64
	// Health is the stall detector's verdict after this round
	// (TypeRoundProfile): "converging", "plateaued" or "stalled".
	Health string

	// WriteNanos is the checkpoint serialization wall time
	// (TypeCheckpointWritten; schema 2).
	WriteNanos int64
}

// Filter selects a subset of events: a type allow-list (empty = every
// type) intersected with an inclusive round window (0 bounds are open).
// The zero Filter matches everything.
type Filter struct {
	// Types allow-lists event types; nil or empty matches every type.
	Types []Type
	// MinRound and MaxRound bound Event.Round inclusively; 0 leaves the
	// corresponding side open.
	MinRound int
	MaxRound int
}

// Match reports whether ev passes the filter. It never allocates.
func (f Filter) Match(ev Event) bool {
	if f.MinRound > 0 && ev.Round < f.MinRound {
		return false
	}
	if f.MaxRound > 0 && ev.Round > f.MaxRound {
		return false
	}
	if len(f.Types) == 0 {
		return true
	}
	for _, t := range f.Types {
		if t == ev.Type {
			return true
		}
	}
	return false
}

// AppendJSON appends the event's one-line JSON encoding (schema version
// Schema, no trailing newline) to buf and returns the extended slice.
// Only the fields meaningful for the event's type are emitted, so every
// line stays self-describing and compact; a reused buf makes steady-state
// encoding allocation-free.
func (ev Event) AppendJSON(buf []byte) []byte {
	buf = append(buf, `{"v":`...)
	buf = strconv.AppendInt(buf, Schema, 10)
	buf = append(buf, `,"type":"`...)
	buf = append(buf, ev.Type.String()...)
	buf = append(buf, `","round":`...)
	buf = strconv.AppendInt(buf, int64(ev.Round), 10)
	switch ev.Type {
	case TypeSessionStart:
		buf = appendIntField(buf, "potential", int64(ev.Potential))
		buf = appendIntField(buf, "n", int64(ev.N))
		buf = appendIntField(buf, "k", int64(ev.K))
		buf = appendStringField(buf, "algorithm", ev.Algorithm)
		buf = appendStringField(buf, "topology", ev.Topology)
	case TypeCheckpointResumed, TypeSessionCancel:
		buf = appendIntField(buf, "potential", int64(ev.Potential))
	case TypeTopologyRebound:
		buf = appendIntField(buf, "potential", int64(ev.Potential))
		buf = appendStringField(buf, "topology", ev.Topology)
	case TypeCheckpointWritten:
		buf = appendIntField(buf, "potential", int64(ev.Potential))
		buf = appendIntField(buf, "write_ns", ev.WriteNanos)
	case TypeRoundCompleted:
		buf = appendIntField(buf, "potential", int64(ev.Potential))
		buf = appendIntField(buf, "connections", ev.Connections)
		buf = appendIntField(buf, "proposals", ev.Proposals)
		buf = appendIntField(buf, "control_bits", ev.ControlBits)
		buf = appendIntField(buf, "tokens_moved", ev.TokensMoved)
		buf = appendIntField(buf, "edges_added", int64(ev.EdgesAdded))
		buf = appendIntField(buf, "edges_removed", int64(ev.EdgesRemoved))
		buf = appendBoolField(buf, "done", ev.Done)
	case TypeChurnApplied:
		buf = appendIntField(buf, "edges_added", int64(ev.EdgesAdded))
		buf = appendIntField(buf, "edges_removed", int64(ev.EdgesRemoved))
	case TypeAdversaryEpoch:
		buf = appendIntField(buf, "epoch", int64(ev.Epoch))
	case TypeSessionEnd:
		buf = appendIntField(buf, "potential", int64(ev.Potential))
		buf = appendBoolField(buf, "solved", ev.Solved)
		buf = appendIntField(buf, "connections", ev.Connections)
		buf = appendIntField(buf, "proposals", ev.Proposals)
		buf = appendIntField(buf, "control_bits", ev.ControlBits)
		buf = appendIntField(buf, "tokens_moved", ev.TokensMoved)
		buf = appendIntField(buf, "edges_added", int64(ev.EdgesAdded))
		buf = appendIntField(buf, "edges_removed", int64(ev.EdgesRemoved))
	case TypeRoundProfile:
		buf = appendIntField(buf, "round_ns", ev.RoundNanos)
		buf = appendIntField(buf, "churn_ns", ev.ChurnNanos)
		buf = appendIntField(buf, "proposal_ns", ev.ProposalNanos)
		buf = appendIntField(buf, "exchange_ns", ev.ExchangeNanos)
		buf = appendIntField(buf, "reduction_ns", ev.ReductionNanos)
		buf = appendIntField(buf, "workers", int64(ev.Workers))
		buf = appendIntField(buf, "imbalance_milli", ev.ImbalanceMilli)
		buf = appendIntField(buf, "barrier_ns", ev.BarrierNanos)
		buf = appendStringField(buf, "health", ev.Health)
	}
	return append(buf, '}')
}

func appendIntField(buf []byte, name string, v int64) []byte {
	buf = append(buf, ',', '"')
	buf = append(buf, name...)
	buf = append(buf, '"', ':')
	return strconv.AppendInt(buf, v, 10)
}

func appendBoolField(buf []byte, name string, v bool) []byte {
	buf = append(buf, ',', '"')
	buf = append(buf, name...)
	buf = append(buf, '"', ':')
	return strconv.AppendBool(buf, v)
}

// appendStringField JSON-escapes v (quotes, backslashes and control
// bytes; multi-byte UTF-8 — topology names carry τ — passes through raw,
// which JSON permits).
func appendStringField(buf []byte, name, v string) []byte {
	buf = append(buf, ',', '"')
	buf = append(buf, name...)
	buf = append(buf, '"', ':', '"')
	for i := 0; i < len(v); i++ {
		switch c := v[i]; {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}
