package events

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// feedSession drives one small synthetic session through the collector
// via a bus, returning the bus for further publishing.
func feedSession(c *Collector) *Bus {
	b := NewBus()
	c.Attach(b)
	b.Publish(Event{Type: TypeSessionStart, Round: 0, Potential: 56, N: 8, K: 8})
	b.Publish(Event{Type: TypeCheckpointResumed, Round: 0, Potential: 56})
	for r := 1; r <= 4; r++ {
		if r == 2 {
			b.Publish(Event{Type: TypeChurnApplied, Round: r, EdgesAdded: 2, EdgesRemoved: 1})
		}
		if r == 3 {
			b.Publish(Event{Type: TypeAdversaryEpoch, Round: r, Epoch: 1})
		}
		b.Publish(Event{Type: TypeRoundCompleted, Round: r, Potential: 56 - r*10,
			Connections: 3, Proposals: 5, ControlBits: 10, TokensMoved: 2,
			EdgesAdded: boolInt(r == 2) * 2, EdgesRemoved: boolInt(r == 2)})
	}
	b.Publish(Event{Type: TypeCheckpointWritten, Round: 4, Potential: 16})
	b.Publish(Event{Type: TypeSessionEnd, Round: 4, Potential: 16, Solved: false,
		Connections: 12, Proposals: 20, ControlBits: 40, TokensMoved: 8})
	return b
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// parseExposition reads Prometheus text exposition format into a value
// map, failing the test on malformed HELP/TYPE/sample structure.
func parseExposition(t *testing.T, r io.Reader) map[string]float64 {
	t.Helper()
	vals := map[string]float64{}
	sc := bufio.NewScanner(r)
	var lastHelp, lastType string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# HELP "):
			lastHelp = strings.SplitN(line[len("# HELP "):], " ", 2)[0]
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 || (parts[1] != "counter" && parts[1] != "gauge" && parts[1] != "histogram") {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			lastType = parts[0]
			if lastType != lastHelp {
				t.Fatalf("TYPE %q not preceded by its HELP (saw %q)", lastType, lastHelp)
			}
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unknown comment line: %q", line)
		default:
			parts := strings.Fields(line)
			if len(parts) != 2 {
				t.Fatalf("malformed sample line: %q", line)
			}
			// Strip any label set; histogram samples append _bucket/_sum/
			// _count to the family name.
			name := parts[0]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			base := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base = strings.TrimSuffix(base, suffix)
			}
			if name != lastType && base != lastType {
				t.Fatalf("sample %q not preceded by its TYPE (saw %q)", parts[0], lastType)
			}
			v, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				t.Fatalf("sample %q has non-numeric value: %v", parts[0], err)
			}
			vals[parts[0]] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestCollectorWriteTo(t *testing.T) {
	c := NewCollector()
	feedSession(c)

	var out strings.Builder
	if _, err := c.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	vals := parseExposition(t, strings.NewReader(out.String()))

	want := map[string]float64{
		"mobilegossip_sessions_started_total":    1,
		"mobilegossip_sessions_ended_total":      1,
		"mobilegossip_sessions_solved_total":     0,
		"mobilegossip_sessions_canceled_total":   0,
		"mobilegossip_sessions_resumed_total":    1,
		"mobilegossip_checkpoints_written_total": 1,
		"mobilegossip_rounds_total":              4,
		"mobilegossip_potential":                 16,
		"mobilegossip_tokens_known":              48, // n·k − φ = 64 − 16
		"mobilegossip_connections_total":         12,
		"mobilegossip_proposals_total":           20,
		"mobilegossip_control_bits_total":        40,
		"mobilegossip_tokens_moved_total":        8,
		"mobilegossip_edges_added_total":         2,
		"mobilegossip_edges_removed_total":       1,
		"mobilegossip_churn_rounds_total":        1,
		"mobilegossip_adversary_epochs_total":    1,
	}
	for name, v := range want {
		got, ok := vals[name]
		if !ok {
			t.Errorf("metric %s missing from exposition", name)
			continue
		}
		if got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if _, ok := vals["mobilegossip_rounds_per_second"]; !ok {
		t.Error("mobilegossip_rounds_per_second missing from exposition")
	}
	if rps := c.RoundsPerSecond(); rps <= 0 {
		t.Errorf("RoundsPerSecond = %v after 4 rounds, want > 0", rps)
	}
}

// TestCollectorProfileExposition feeds round_profile and timed
// checkpoint events and checks the histogram + health rendering: an
// unprofiled collector must emit none of it (the schema-1 scrape shape),
// a profiled one must emit well-formed cumulative histograms and a
// state-labeled health gauge.
func TestCollectorProfileExposition(t *testing.T) {
	c := NewCollector()
	var out strings.Builder
	if _, err := c.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{"_latency_seconds", "session_health", "_bucket"} {
		if strings.Contains(out.String(), forbidden) {
			t.Fatalf("unprofiled exposition contains %q:\n%s", forbidden, out.String())
		}
	}

	c.Observe(Event{Type: TypeRoundProfile, Round: 1, RoundNanos: 50_000,
		ChurnNanos: 1000, ProposalNanos: 30_000, ExchangeNanos: 15_000,
		ReductionNanos: 2000, Health: "converging"})
	c.Observe(Event{Type: TypeRoundProfile, Round: 2, RoundNanos: 70_000,
		ChurnNanos: 1000, ProposalNanos: 40_000, ExchangeNanos: 25_000,
		ReductionNanos: 3000, Health: "plateaued"})
	c.Observe(Event{Type: TypeCheckpointWritten, Round: 2, WriteNanos: 1_000_000})

	out.Reset()
	if _, err := c.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	vals := parseExposition(t, strings.NewReader(out.String()))

	if got := vals[`mobilegossip_round_latency_seconds_bucket{le="+Inf"}`]; got != 2 {
		t.Errorf("round latency +Inf bucket = %v, want 2", got)
	}
	if got := vals["mobilegossip_round_latency_seconds_count"]; got != 2 {
		t.Errorf("round latency count = %v, want 2", got)
	}
	if got := vals["mobilegossip_round_latency_seconds_sum"]; got != 120_000/1e9 {
		t.Errorf("round latency sum = %v, want %v", got, 120_000/1e9)
	}
	if got := vals["mobilegossip_checkpoint_write_seconds_count"]; got != 1 {
		t.Errorf("checkpoint write count = %v, want 1", got)
	}
	if got := vals[`mobilegossip_session_health{state="plateaued"}`]; got != 1 {
		t.Errorf("health{plateaued} = %v, want 1", got)
	}
	if got := vals[`mobilegossip_session_health{state="converging"}`]; got != 0 {
		t.Errorf("health{converging} = %v, want 0", got)
	}
	if c.Health().String() != "plateaued" {
		t.Errorf("Health() = %v, want plateaued", c.Health())
	}

	// Cumulative bucket counts must be monotone and end at the count.
	var lastCum float64
	for i := 0; i < 65; i++ {
		key := "mobilegossip_round_latency_seconds_bucket{le=\"" +
			strconv.FormatFloat(float64((int64(1)<<uint(i))-1)/1e9, 'g', -1, 64) + "\"}"
		if v, ok := vals[key]; ok {
			if v < lastCum {
				t.Fatalf("bucket %s = %v below previous %v", key, v, lastCum)
			}
			lastCum = v
		}
	}
	if lastCum != 2 {
		t.Errorf("largest bucket cumulative = %v, want 2", lastCum)
	}
}

func TestCollectorHTTPScrape(t *testing.T) {
	c := NewCollector()
	bus := feedSession(c)

	bus.Publish(Event{Type: TypeRoundCompleted, Round: 5, Potential: 10})
	bus.Publish(Event{Type: TypeRoundCompleted, Round: 6, Potential: 9})

	srv := httptest.NewServer(c)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want the text exposition type", ct)
	}
	vals := parseExposition(t, resp.Body)
	if got := vals["mobilegossip_rounds_total"]; got != 6 {
		t.Fatalf("rounds_total = %v after scrape, want 6", got)
	}
}
