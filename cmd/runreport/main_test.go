package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobilegossip"
	"mobilegossip/internal/events"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		q    float64
		want int64
	}{
		{0.50, 50}, {0.95, 100}, {0.99, 100}, {0.10, 10}, {1.0, 100},
	} {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("percentile(q=%.2f) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile([]int64{42}, 0.99); got != 42 {
		t.Errorf("single-sample percentile = %d, want 42", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %d, want 0", got)
	}
}

// TestBuildSyntheticStream feeds a hand-built event sequence through the
// analyzer and checks every counter, the drop detection (a gap in the
// round numbers), and the exact percentile arithmetic.
func TestBuildSyntheticStream(t *testing.T) {
	evs := []events.Event{
		{Type: events.TypeSessionStart, Round: 0, N: 64, K: 8, Algorithm: "sharedbit", Topology: "ring"},
		{Type: events.TypeChurnApplied, Round: 1, EdgesAdded: 3, EdgesRemoved: 2},
		{Type: events.TypeRoundCompleted, Round: 1, Potential: 90, Connections: 10, TokensMoved: 4},
		{Type: events.TypeRoundProfile, Round: 1, RoundNanos: 1000, ChurnNanos: 100,
			ProposalNanos: 500, ExchangeNanos: 300, ReductionNanos: 50, Health: "converging"},
		{Type: events.TypeRoundCompleted, Round: 2, Potential: 80, Connections: 10, TokensMoved: 4},
		{Type: events.TypeRoundProfile, Round: 2, RoundNanos: 3000, ChurnNanos: 100,
			ProposalNanos: 2000, ExchangeNanos: 700, ReductionNanos: 100, Health: "converging"},
		// rounds 3 and 4 dropped by a slow sink
		{Type: events.TypeRoundCompleted, Round: 5, Potential: 40, Done: false},
		{Type: events.TypeCheckpointWritten, Round: 5, WriteNanos: 7000},
		{Type: events.TypeRoundCompleted, Round: 6, Potential: 0, Done: true},
		{Type: events.TypeSessionEnd, Round: 6, Potential: 0, Solved: true},
	}
	rep := build(evs, 0, 0)

	if rep.Events != len(evs) || rep.Rounds != 4 || rep.DroppedRounds != 2 {
		t.Fatalf("events/rounds/dropped = %d/%d/%d, want %d/4/2", rep.Events, rep.Rounds, rep.DroppedRounds, len(evs))
	}
	if !rep.Solved || rep.FinalPotential != 0 {
		t.Fatalf("solved/φ = %v/%d", rep.Solved, rep.FinalPotential)
	}
	if rep.Algorithm != "sharedbit" || rep.N != 64 || rep.K != 8 {
		t.Fatalf("identity %q n=%d k=%d", rep.Algorithm, rep.N, rep.K)
	}
	if rep.EdgesAdded != 3 || rep.EdgesRemoved != 2 {
		t.Fatalf("churn +%d/-%d", rep.EdgesAdded, rep.EdgesRemoved)
	}
	if rep.Checkpoints != 1 || rep.CheckpointNs == nil || rep.CheckpointNs.P50Ns != 7000 {
		t.Fatalf("checkpoint stats %+v", rep.CheckpointNs)
	}
	if rep.ProfiledRounds != 2 || rep.RoundLatency == nil {
		t.Fatalf("profiled rounds %d", rep.ProfiledRounds)
	}
	// Two samples {1000, 3000}: nearest-rank p50 is 1000, p95/p99/max 3000.
	l := rep.RoundLatency
	if l.P50Ns != 1000 || l.P95Ns != 3000 || l.P99Ns != 3000 || l.MaxNs != 3000 || l.TotalNs != 4000 {
		t.Fatalf("round latency %+v", l)
	}
	if len(rep.Phases) != 4 {
		t.Fatalf("%d phase rows", len(rep.Phases))
	}
	// Proposal dominates: 2500 of the 3850 attributed ns.
	if p := rep.Phases[1]; p.Phase != "proposal" || p.TotalNs != 2500 {
		t.Fatalf("proposal row %+v", p)
	}
	// φ dropped on the final observed round: converging, agreeing with
	// the recorded live health.
	if rep.Verdict != "converging" || rep.LiveHealth != "converging" {
		t.Fatalf("verdict %q live %q", rep.Verdict, rep.LiveHealth)
	}
}

// TestVerdictReplayDetectsStall pins the plateau/stall classification on
// a synthetic flat potential curve and the threshold flags.
func TestVerdictReplayDetectsStall(t *testing.T) {
	var evs []events.Event
	for r := 1; r <= 30; r++ {
		evs = append(evs, events.Event{Type: events.TypeRoundCompleted, Round: r, Potential: 50})
	}
	if rep := build(evs, 0, 0); rep.Verdict != "converging" {
		t.Fatalf("default thresholds on 30 flat rounds: %q, want converging", rep.Verdict)
	}
	if rep := build(evs, 8, 20); rep.Verdict != "stalled" {
		t.Fatalf("window=8 stallafter=20 on 30 flat rounds: %q, want stalled", rep.Verdict)
	}
	if rep := build(evs[:15], 8, 20); rep.Verdict != "plateaued" {
		t.Fatalf("window=8 stallafter=20 on 15 flat rounds: %q, want plateaued", rep.Verdict)
	}
	if rep := build(nil, 0, 0); rep.Verdict != "unknown" {
		t.Fatalf("empty stream verdict %q, want unknown", rep.Verdict)
	}
}

// TestReportOnRealRunReproducible drives a real profiled session
// into a JSONL file, then runs the full command twice over it — text and
// JSON — checking the outputs are byte-identical across invocations (the
// reproducibility contract) and agree with the session's Result.
func TestReportOnRealRunReproducible(t *testing.T) {
	sim, err := mobilegossip.New(mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 128, K: 16,
		Topology: mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint},
		Tau:      1, Seed: 17, Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "events.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := mobilegossip.NewJSONLSink(sim.Bus(), f, mobilegossip.EventFilter{}, 1<<16)
	res, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	render := func(args ...string) string {
		var out bytes.Buffer
		if err := run(append(args, path), &out); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		return out.String()
	}
	text1, text2 := render(), render()
	if text1 != text2 {
		t.Fatal("text report differs between two runs over the same file")
	}
	js1, js2 := render("-json"), render("-json")
	if js1 != js2 {
		t.Fatal("JSON report differs between two runs over the same file")
	}

	var rep Report
	if err := json.Unmarshal([]byte(js1), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != res.Rounds || rep.ProfiledRounds != res.Rounds || rep.DroppedRounds != 0 {
		t.Fatalf("rounds %d profiled %d dropped %d, Result says %d",
			rep.Rounds, rep.ProfiledRounds, rep.DroppedRounds, res.Rounds)
	}
	if rep.Solved != res.Solved || rep.Proposals != res.Proposals ||
		rep.Connections != res.Connections || rep.TokensMoved != res.TokensMoved {
		t.Fatalf("report %+v disagrees with Result %+v", rep, res)
	}
	// The replayed verdict must match what the live session reported.
	if rep.Verdict != rep.LiveHealth {
		t.Fatalf("replayed verdict %q != live health %q", rep.Verdict, rep.LiveHealth)
	}
	if res.Solved && rep.Verdict != "converging" {
		t.Fatalf("solved run verdict %q", rep.Verdict)
	}
}

// TestRunFlagErrors pins the CLI error paths.
func TestRunFlagErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"v\":99,\"type\":\"round_completed\",\"round\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{},                                   // missing file
		{"a.jsonl", "b.jsonl"},               // too many files
		{filepath.Join(dir, "absent.jsonl")}, // unreadable
		{bad},                                // unsupported schema version
		{"-every", "-1", bad},                // negative stride
		{"-json", "-every", "5", bad},        // the table is text-only
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestEveryTableOnGolden pins the -every table and the acceptance line on
// the festival scenario's recorded event stream: rounds 1 and 21 by the
// stride, 27 as the last, and 596 of 1114 proposals accepted.
func TestEveryTableOnGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-every", "20", "../../scenarios/golden/festival.events.jsonl"}, &out); err != nil {
		t.Fatal(err)
	}
	const table = `round  φ    connections  proposals  tokens  churn
1      595  1            1          1       +0/-0
21     118  38           99         38      +200/-205
27     0    12           54         12      +0/-0

`
	got := out.String()
	if !strings.HasPrefix(got, table) {
		t.Fatalf("-every 20 table:\n%s\nwant prefix:\n%s", got, table)
	}
	if !strings.Contains(got, "\nproposals    1114 (53.5% accepted)\n") {
		t.Fatalf("no acceptance line for 596 of 1114 proposals in:\n%s", got)
	}

	out.Reset()
	if err := run([]string{"../../scenarios/golden/festival.events.jsonl"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "churn\n") {
		t.Fatalf("default report printed a per-round table:\n%s", out.String())
	}
}
