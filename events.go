package mobilegossip

import (
	"io"

	"mobilegossip/internal/events"
)

// The structured event surface, re-exported from internal/events so
// library callers can name the types that Simulation.Bus hands out. The
// implementation, delivery semantics and the zero-alloc contract live
// in internal/events; the taxonomy table is DESIGN.md §12.
type (
	// Event is one typed, versioned session event.
	Event = events.Event
	// EventType identifies one kind of session event.
	EventType = events.Type
	// EventFilter selects event types and a round window.
	EventFilter = events.Filter
	// EventBus is the session's publish/subscribe hub.
	EventBus = events.Bus
	// MetricsCollector aggregates events into Prometheus-style metrics.
	MetricsCollector = events.Collector
	// EventJSONLSink streams events as JSON lines.
	EventJSONLSink = events.JSONLSink
)

// The event taxonomy (see events.Type for per-type semantics).
const (
	EventSessionStart      = events.TypeSessionStart
	EventCheckpointResumed = events.TypeCheckpointResumed
	EventRoundCompleted    = events.TypeRoundCompleted
	EventChurnApplied      = events.TypeChurnApplied
	EventAdversaryEpoch    = events.TypeAdversaryEpoch
	EventCheckpointWritten = events.TypeCheckpointWritten
	EventSessionCancel     = events.TypeSessionCancel
	EventSessionEnd        = events.TypeSessionEnd
	EventRoundProfile      = events.TypeRoundProfile
	EventTopologyRebound   = events.TypeTopologyRebound
)

// EventSchema is the wire-format version stamped on serialized events.
const EventSchema = events.Schema

// ParseEventType resolves a wire name ("round_completed", ...) to its
// EventType.
func ParseEventType(s string) (EventType, error) { return events.ParseType(s) }

// NewJSONLSink attaches a JSONL stream sink to bus: events matching f
// are written to w as one JSON line each, inline and lossless. buffer is
// accepted and ignored. Close it after the run to flush and collect the
// first write error.
func NewJSONLSink(bus *EventBus, w io.Writer, f EventFilter, buffer int) *EventJSONLSink {
	return events.NewJSONLSink(bus, w, f, buffer)
}

// NewMetricsCollector returns an empty metrics collector; attach it
// with MetricsCollector.Attach(sim.Bus()) and serve or scrape it via
// its WriteTo / http.Handler surface (the gossipsim -metrics endpoint).
func NewMetricsCollector() *MetricsCollector { return events.NewCollector() }
