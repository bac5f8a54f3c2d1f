package events

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"mobilegossip/internal/profile"
)

// Collector aggregates session events into Prometheus-style metrics: a
// set of counters and gauges rendered in the text exposition format by
// WriteTo, and served over HTTP by ServeHTTP (the gossipsim -metrics
// endpoint). Attach it to one or more buses — updates are a handful of
// atomic stores per event, lossless and allocation-free — and scrape it
// from any goroutine at any time.
type Collector struct {
	sessionsStarted  atomic.Int64
	sessionsEnded    atomic.Int64
	sessionsSolved   atomic.Int64
	sessionsCanceled atomic.Int64
	sessionsResumed  atomic.Int64
	checkpoints      atomic.Int64

	rounds      atomic.Int64
	potential   atomic.Int64 // gauge: φ after the last completed round
	tokensKnown atomic.Int64 // gauge: n·k − φ
	nk          atomic.Int64 // n·k of the current session

	connections atomic.Int64
	proposals   atomic.Int64
	controlBits atomic.Int64
	tokensMoved atomic.Int64

	edgesAdded   atomic.Int64
	edgesRemoved atomic.Int64
	churnRounds  atomic.Int64
	advEpochs    atomic.Int64
	rebinds      atomic.Int64

	firstRound atomic.Int64 // unix nanos of the first observed round
	lastRound  atomic.Int64 // unix nanos of the latest observed round

	// Timing histograms, fed by round_profile and checkpoint_written
	// events (empty — and omitted from the exposition — on unprofiled
	// sessions). Lock-free like the counters above.
	roundLatency profile.Histogram // round wall time, ns
	phaseLatency [profile.NumPhases]profile.Histogram
	ckptWrite    profile.Histogram // checkpoint serialization, ns
	health       atomic.Int64      // latest profile.Health verdict
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Attach subscribes the collector to bus (every event, lossless). The
// returned cancel function detaches it.
func (c *Collector) Attach(bus *Bus) (cancel func()) {
	return bus.SubscribeSync(Filter{}, c.Observe)
}

// Observe folds one event into the metrics. Attach wires it up as the
// bus handler; call it directly when feeding the collector by hand.
func (c *Collector) Observe(ev Event) {
	switch ev.Type {
	case TypeSessionStart:
		c.sessionsStarted.Add(1)
		nk := int64(ev.N) * int64(ev.K)
		c.nk.Store(nk)
		c.potential.Store(int64(ev.Potential))
		c.tokensKnown.Store(nk - int64(ev.Potential))
	case TypeCheckpointResumed:
		c.sessionsResumed.Add(1)
	case TypeRoundCompleted:
		c.rounds.Add(1)
		c.potential.Store(int64(ev.Potential))
		c.tokensKnown.Store(c.nk.Load() - int64(ev.Potential))
		c.connections.Add(ev.Connections)
		c.proposals.Add(ev.Proposals)
		c.controlBits.Add(ev.ControlBits)
		c.tokensMoved.Add(ev.TokensMoved)
		c.edgesAdded.Add(int64(ev.EdgesAdded))
		c.edgesRemoved.Add(int64(ev.EdgesRemoved))
		now := time.Now().UnixNano()
		c.firstRound.CompareAndSwap(0, now)
		c.lastRound.Store(now)
	case TypeChurnApplied:
		c.churnRounds.Add(1)
	case TypeAdversaryEpoch:
		c.advEpochs.Add(1)
	case TypeTopologyRebound:
		c.rebinds.Add(1)
	case TypeCheckpointWritten:
		c.checkpoints.Add(1)
		if ev.WriteNanos > 0 {
			c.ckptWrite.Record(ev.WriteNanos)
		}
	case TypeRoundProfile:
		c.roundLatency.Record(ev.RoundNanos)
		c.phaseLatency[profile.PhaseChurn].Record(ev.ChurnNanos)
		c.phaseLatency[profile.PhaseProposal].Record(ev.ProposalNanos)
		c.phaseLatency[profile.PhaseExchange].Record(ev.ExchangeNanos)
		c.phaseLatency[profile.PhaseReduction].Record(ev.ReductionNanos)
		if h, err := profile.ParseHealth(ev.Health); err == nil {
			c.health.Store(int64(h))
		}
	case TypeSessionCancel:
		c.sessionsCanceled.Add(1)
	case TypeSessionEnd:
		c.sessionsEnded.Add(1)
		if ev.Solved {
			c.sessionsSolved.Add(1)
		}
	}
}

// RoundsPerSecond returns the observed round throughput: rounds per
// wall-clock second between the first and latest TypeRoundCompleted
// events (0 until two rounds have been seen).
func (c *Collector) RoundsPerSecond() float64 {
	r := c.rounds.Load()
	first, last := c.firstRound.Load(), c.lastRound.Load()
	if r < 2 || last <= first {
		return 0
	}
	return float64(r-1) / (float64(last-first) / 1e9)
}

// metricRows renders the current values in exposition order.
func (c *Collector) metricRows() []metricRow {
	return []metricRow{
		{"mobilegossip_sessions_started_total", "counter", "Simulation sessions that began a run.", float64(c.sessionsStarted.Load())},
		{"mobilegossip_sessions_ended_total", "counter", "Simulation sessions that finished (objective or MaxRounds).", float64(c.sessionsEnded.Load())},
		{"mobilegossip_sessions_solved_total", "counter", "Finished sessions that reached the gossip objective.", float64(c.sessionsSolved.Load())},
		{"mobilegossip_sessions_canceled_total", "counter", "Run calls that returned on context cancellation.", float64(c.sessionsCanceled.Load())},
		{"mobilegossip_sessions_resumed_total", "counter", "Sessions resumed from a checkpoint.", float64(c.sessionsResumed.Load())},
		{"mobilegossip_checkpoints_written_total", "counter", "Checkpoints serialized.", float64(c.checkpoints.Load())},
		{"mobilegossip_rounds_total", "counter", "Simulation rounds executed.", float64(c.rounds.Load())},
		{"mobilegossip_rounds_per_second", "gauge", "Observed round throughput between the first and latest round.", c.RoundsPerSecond()},
		{"mobilegossip_potential", "gauge", "Live potential φ = Σ_u (k − |T_u|) after the latest round.", float64(c.potential.Load())},
		{"mobilegossip_tokens_known", "gauge", "Total (node, token) pairs learned so far (n·k − φ).", float64(c.tokensKnown.Load())},
		{"mobilegossip_connections_total", "counter", "Accepted connections.", float64(c.connections.Load())},
		{"mobilegossip_proposals_total", "counter", "Sent proposals.", float64(c.proposals.Load())},
		{"mobilegossip_control_bits_total", "counter", "Control bits metered over connections.", float64(c.controlBits.Load())},
		{"mobilegossip_tokens_moved_total", "counter", "Token transfers over connections.", float64(c.tokensMoved.Load())},
		{"mobilegossip_edges_added_total", "counter", "Topology edges added by dynamic schedules.", float64(c.edgesAdded.Load())},
		{"mobilegossip_edges_removed_total", "counter", "Topology edges removed by dynamic schedules.", float64(c.edgesRemoved.Load())},
		{"mobilegossip_churn_rounds_total", "counter", "Rounds whose topology changed.", float64(c.churnRounds.Load())},
		{"mobilegossip_adversary_epochs_total", "counter", "Adversary perturbation epochs entered.", float64(c.advEpochs.Load())},
		{"mobilegossip_topology_rebinds_total", "counter", "Mid-run topology schedule swaps (phased scenarios).", float64(c.rebinds.Load())},
	}
}

type metricRow struct {
	name, kind, help string
	value            float64
}

// Health returns the stall detector's latest verdict as observed from
// round_profile events (HealthUnknown on unprofiled sessions).
func (c *Collector) Health() profile.Health {
	return profile.Health(c.health.Load())
}

// WriteTo renders the metrics in the Prometheus text exposition format:
// the counter/gauge rows, then — once a profiled session has fed them —
// the timing histograms and the session health gauge.
func (c *Collector) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, m := range c.metricRows() {
		n, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
			m.name, m.help, m.name, m.kind,
			m.name, strconv.FormatFloat(m.value, 'g', -1, 64))
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	hists := []struct {
		name, help string
		h          *profile.Histogram
		scale      float64 // divides recorded values into exposition units
	}{
		{"mobilegossip_round_latency_seconds", "Wall-clock time per simulation round.", &c.roundLatency, 1e9},
		{"mobilegossip_phase_churn_seconds", "Per-round wall-clock time applying topology churn.", &c.phaseLatency[profile.PhaseChurn], 1e9},
		{"mobilegossip_phase_proposal_seconds", "Per-round wall-clock time in the proposal machinery (tag, decide, deliver, accept).", &c.phaseLatency[profile.PhaseProposal], 1e9},
		{"mobilegossip_phase_exchange_seconds", "Per-round wall-clock time exchanging over accepted connections.", &c.phaseLatency[profile.PhaseExchange], 1e9},
		{"mobilegossip_phase_reduction_seconds", "Per-round wall-clock time in sequential cross-shard reductions.", &c.phaseLatency[profile.PhaseReduction], 1e9},
		{"mobilegossip_checkpoint_write_seconds", "Checkpoint serialization wall-clock time.", &c.ckptWrite, 1e9},
	}
	for _, hm := range hists {
		n, err := writeHistogram(w, hm.name, hm.help, hm.h, hm.scale)
		total += n
		if err != nil {
			return total, err
		}
	}
	if h := c.Health(); h != profile.HealthUnknown {
		const healthName = "mobilegossip_session_health"
		n, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n",
			healthName,
			"Stall-detector verdict for the current session (1 on the active state).",
			healthName)
		total += int64(n)
		if err != nil {
			return total, err
		}
		for _, s := range []profile.Health{profile.HealthConverging, profile.HealthPlateaued, profile.HealthStalled} {
			v := 0
			if s == h {
				v = 1
			}
			n, err := fmt.Fprintf(w, "mobilegossip_session_health{state=%q} %d\n", s.String(), v)
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// writeHistogram renders one log-bucketed histogram in the Prometheus
// text format (cumulative _bucket rows with le bounds in exposition
// units, then _sum and _count). Empty histograms are omitted entirely so
// unprofiled sessions keep their scrape output unchanged from schema 1.
func writeHistogram(w io.Writer, name, help string, h *profile.Histogram, scale float64) (int64, error) {
	snap := h.Snapshot()
	if snap.Count == 0 {
		return 0, nil
	}
	var total int64
	n, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	total += int64(n)
	if err != nil {
		return total, err
	}
	maxB := snap.MaxBucket()
	var cum int64
	for i := 0; i <= maxB; i++ {
		cum += snap.Counts[i]
		le := strconv.FormatFloat(float64(profile.BucketBound(i))/scale, 'g', -1, 64)
		n, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	n, err = fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		name, snap.Count,
		name, strconv.FormatFloat(float64(snap.Sum)/scale, 'g', -1, 64),
		name, snap.Count)
	total += int64(n)
	return total, err
}

// ServeHTTP implements http.Handler: a GET returns the WriteTo output
// with the standard text exposition content type, ready to be mounted
// at /metrics and scraped.
func (c *Collector) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = c.WriteTo(w)
}
