package events

import (
	"bufio"
	"errors"
	"strings"
	"testing"
)

// TestJSONLSinkGolden pins the wire format line by line: one schema-
// versioned JSON object per event, only the fields meaningful for the
// type. Changing the encoding must change these strings — that is the
// compatibility contract of DESIGN.md §12.
func TestJSONLSinkGolden(t *testing.T) {
	b := NewBus()
	var out strings.Builder
	sink := NewJSONLSink(b, &out, Filter{}, 0)

	b.Publish(Event{Type: TypeSessionStart, Round: 0, Potential: 56, N: 8, K: 8,
		Algorithm: "sharedbit", Topology: "regular(d=4, τ=1)"})
	b.Publish(Event{Type: TypeCheckpointResumed, Round: 40, Potential: 31})
	b.Publish(Event{Type: TypeChurnApplied, Round: 41, EdgesAdded: 3, EdgesRemoved: 2})
	b.Publish(Event{Type: TypeAdversaryEpoch, Round: 41, Epoch: 5})
	b.Publish(Event{Type: TypeTopologyRebound, Round: 41, Potential: 30,
		Topology: "group(g=3, a=0.90, v=0.020)τ=1"})
	b.Publish(Event{Type: TypeRoundCompleted, Round: 41, Potential: 30, Connections: 4,
		Proposals: 6, ControlBits: 12, TokensMoved: 1, EdgesAdded: 3, EdgesRemoved: 2})
	b.Publish(Event{Type: TypeCheckpointWritten, Round: 41, Potential: 30})
	b.Publish(Event{Type: TypeSessionCancel, Round: 41, Potential: 30})
	b.Publish(Event{Type: TypeRoundProfile, Round: 41, RoundNanos: 52000,
		ChurnNanos: 2000, ProposalNanos: 30000, ExchangeNanos: 15000, ReductionNanos: 4000,
		Workers: 4, ImbalanceMilli: 1250, BarrierNanos: 9000, Health: "converging"})
	b.Publish(Event{Type: TypeSessionEnd, Round: 77, Potential: 0, Solved: true,
		Connections: 300, Proposals: 450, ControlBits: 900, TokensMoved: 56})

	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		`{"v":3,"type":"session_start","round":0,"potential":56,"n":8,"k":8,"algorithm":"sharedbit","topology":"regular(d=4, τ=1)"}`,
		`{"v":3,"type":"checkpoint_resumed","round":40,"potential":31}`,
		`{"v":3,"type":"churn_applied","round":41,"edges_added":3,"edges_removed":2}`,
		`{"v":3,"type":"adversary_epoch","round":41,"epoch":5}`,
		`{"v":3,"type":"topology_rebound","round":41,"potential":30,"topology":"group(g=3, a=0.90, v=0.020)τ=1"}`,
		`{"v":3,"type":"round_completed","round":41,"potential":30,"connections":4,"proposals":6,"control_bits":12,"tokens_moved":1,"edges_added":3,"edges_removed":2,"done":false}`,
		`{"v":3,"type":"checkpoint_written","round":41,"potential":30,"write_ns":0}`,
		`{"v":3,"type":"session_cancel","round":41,"potential":30}`,
		`{"v":3,"type":"round_profile","round":41,"round_ns":52000,"churn_ns":2000,"proposal_ns":30000,"exchange_ns":15000,"reduction_ns":4000,"workers":4,"imbalance_milli":1250,"barrier_ns":9000,"health":"converging"}`,
		`{"v":3,"type":"session_end","round":77,"potential":0,"solved":true,"connections":300,"proposals":450,"control_bits":900,"tokens_moved":56,"edges_added":0,"edges_removed":0}`,
	}
	got := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("wrote %d lines, want %d:\n%s", len(got), len(want), out.String())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
	if sink.Written() != int64(len(want)) || sink.Dropped() != 0 {
		t.Fatalf("Written=%d Dropped=%d, want %d and 0", sink.Written(), sink.Dropped(), len(want))
	}
}

func TestAppendJSONEscapes(t *testing.T) {
	ev := Event{Type: TypeSessionStart, Algorithm: `a"b\c`, Topology: "x\n"}
	line := string(ev.AppendJSON(nil))
	if !strings.Contains(line, `"algorithm":"a\"b\\c"`) {
		t.Fatalf("quotes/backslashes not escaped: %s", line)
	}
	if !strings.Contains(line, `"topology":"x\u000a"`) {
		t.Fatalf("control byte not escaped: %s", line)
	}
}

func TestAppendJSONAllocsWithReusedBuffer(t *testing.T) {
	ev := Event{Type: TypeRoundCompleted, Round: 123456, Potential: 789,
		Connections: 4, Proposals: 6, ControlBits: 12, TokensMoved: 1}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() { _ = ev.AppendJSON(buf[:0]) }); n != 0 {
		t.Fatalf("AppendJSON with a reused buffer allocated %.1f times per call", n)
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// newFailingSink attaches a sink over a writer that fails every write.
// Its 16-byte bufio buffer makes every event line (longer than 16 bytes)
// hit the writer directly, so the failure shows on the event that
// caused it instead of only at the Close-time flush.
func newFailingSink(b *Bus) *JSONLSink {
	sink := &JSONLSink{bw: bufio.NewWriterSize(&failWriter{n: 0}, 16)}
	sink.cancel = b.SubscribeSync(Filter{}, sink.write)
	return sink
}

func TestJSONLSinkWriteError(t *testing.T) {
	b := NewBus()
	sink := newFailingSink(b)

	b.Publish(Event{Type: TypeRoundCompleted, Round: 1})
	if sink.Err() == nil || sink.Dropped() != 1 {
		t.Fatalf("after one failed write: Err() = %v, Dropped = %d; want the error and 1", sink.Err(), sink.Dropped())
	}
	for r := 2; r <= 3; r++ {
		b.Publish(Event{Type: TypeRoundCompleted, Round: r})
	}
	err := sink.Close()
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Close() = %v, want the first write error", err)
	}
	if sink.Err() == nil {
		t.Fatal("Err() lost the write error")
	}
	if sink.Written() != 0 {
		t.Fatalf("Written = %d on a dead writer, want 0", sink.Written())
	}
}

// TestJSONLSinkWriteErrorSurfacesPromptly is the regression test for the
// Close-only error visibility bug: a failing writer must show up on the
// sink's drop counter and Err while the session is still running,
// without waiting for Close.
func TestJSONLSinkWriteErrorSurfacesPromptly(t *testing.T) {
	b := NewBus()
	sink := newFailingSink(b)

	const events = 5
	for r := 1; r <= events; r++ {
		b.Publish(Event{Type: TypeRoundCompleted, Round: r})
	}
	// Delivery is synchronous: every event is accounted for by the time
	// Publish returns. Do NOT call Close first — mid-run visibility is
	// the point.
	if got := sink.Dropped(); got != events {
		t.Fatalf("Dropped = %d before Close, want %d", got, events)
	}
	if err := sink.Err(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Err() = %v mid-run, want the write error", err)
	}
	if err := sink.Close(); err == nil {
		t.Fatal("Close() lost the write error")
	}
}
