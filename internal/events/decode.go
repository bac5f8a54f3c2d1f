package events

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// wireEvent mirrors the JSONL field names AppendJSON emits. Decoding
// goes through it so the Event struct itself stays tag-free and the wire
// names have exactly two occurrences in the codebase: the encoder and
// this struct.
type wireEvent struct {
	V              int    `json:"v"`
	Type           string `json:"type"`
	Round          int    `json:"round"`
	Potential      int    `json:"potential"`
	Connections    int64  `json:"connections"`
	Proposals      int64  `json:"proposals"`
	ControlBits    int64  `json:"control_bits"`
	TokensMoved    int64  `json:"tokens_moved"`
	EdgesAdded     int    `json:"edges_added"`
	EdgesRemoved   int    `json:"edges_removed"`
	Done           bool   `json:"done"`
	N              int    `json:"n"`
	K              int    `json:"k"`
	Algorithm      string `json:"algorithm"`
	Topology       string `json:"topology"`
	Solved         bool   `json:"solved"`
	Epoch          int    `json:"epoch"`
	RoundNanos     int64  `json:"round_ns"`
	ChurnNanos     int64  `json:"churn_ns"`
	ProposalNanos  int64  `json:"proposal_ns"`
	ExchangeNanos  int64  `json:"exchange_ns"`
	ReductionNanos int64  `json:"reduction_ns"`
	Workers        int    `json:"workers"`
	ImbalanceMilli int64  `json:"imbalance_milli"`
	BarrierNanos   int64  `json:"barrier_ns"`
	Health         string `json:"health"`
	WriteNanos     int64  `json:"write_ns"`
}

// UnmarshalEvent decodes one JSONL line produced by AppendJSON (this
// schema version or any earlier one — v1 files written before the
// round_profile event decode unchanged). Unknown event types from future
// schemas are rejected; unknown fields are ignored, matching the
// "adding fields is compatible" rule the schema constant documents.
func UnmarshalEvent(line []byte) (Event, error) {
	var w wireEvent
	if err := json.Unmarshal(line, &w); err != nil {
		return Event{}, fmt.Errorf("events: malformed event line: %w", err)
	}
	if w.V < 1 || w.V > Schema {
		return Event{}, fmt.Errorf("events: unsupported schema version %d (reader supports 1..%d)", w.V, Schema)
	}
	typ, err := ParseType(w.Type)
	if err != nil {
		return Event{}, err
	}
	return Event{
		Type:           typ,
		Round:          w.Round,
		Potential:      w.Potential,
		Connections:    w.Connections,
		Proposals:      w.Proposals,
		ControlBits:    w.ControlBits,
		TokensMoved:    w.TokensMoved,
		EdgesAdded:     w.EdgesAdded,
		EdgesRemoved:   w.EdgesRemoved,
		Done:           w.Done,
		N:              w.N,
		K:              w.K,
		Algorithm:      w.Algorithm,
		Topology:       w.Topology,
		Solved:         w.Solved,
		Epoch:          w.Epoch,
		RoundNanos:     w.RoundNanos,
		ChurnNanos:     w.ChurnNanos,
		ProposalNanos:  w.ProposalNanos,
		ExchangeNanos:  w.ExchangeNanos,
		ReductionNanos: w.ReductionNanos,
		Workers:        w.Workers,
		ImbalanceMilli: w.ImbalanceMilli,
		BarrierNanos:   w.BarrierNanos,
		Health:         w.Health,
		WriteNanos:     w.WriteNanos,
	}, nil
}

// ReadAll decodes a whole JSONL event stream (a JSONLSink file), in
// order, skipping blank lines. Errors carry the 1-based line number.
// It is cmd/runreport's ingest path.
func ReadAll(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		ev, err := UnmarshalEvent(line)
		if err != nil {
			return out, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("events: reading stream: %w", err)
	}
	return out, nil
}
