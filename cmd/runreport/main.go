// Command runreport turns a JSONL session-event file (gossipsim -events,
// or any mobilegossip.EventJSONLSink stream) into a post-run report:
// proposal and connection totals with the acceptance rate, round-latency
// percentiles, a per-phase breakdown, churn/checkpoint/drop counts, and
// the stall detector's convergence verdict replayed from the recorded
// potential curve — the same pure function of (round, φ) the live session
// runs, so the report's verdict matches what -metrics served during the
// run. With -every N the text report opens with a per-round table (φ,
// connections, proposals, tokens, churn) of every Nth round_completed
// event.
//
// Every number is computed exactly from the recorded events (percentiles
// are nearest-rank over the sorted samples, not histogram estimates), so
// repeated invocations over the same file reproduce identical tables.
//
// Usage:
//
//	gossipsim -alg sharedbit -graph waypoint -n 5000 -k 8 -tau 1 \
//	    -profile -events run.jsonl
//	runreport run.jsonl
//	runreport -json run.jsonl          # machine-readable form
//	runreport -window 32 run.jsonl     # tighter plateau threshold
//	runreport -every 10 run.jsonl      # per-round table, every 10th round
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"mobilegossip/internal/events"
	"mobilegossip/internal/profile"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "runreport:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("runreport", flag.ContinueOnError)
	var (
		asJSON     = fs.Bool("json", false, "emit the report as a JSON document instead of text")
		window     = fs.Int("window", 0, "stall-detector plateau window in rounds (0 = default 64)")
		stallAfter = fs.Int("stallafter", 0, "stall-detector stall threshold in rounds (0 = default 256)")
		every      = fs.Int("every", 0, "open the text report with a table of every Nth round, plus the last (0 = no table)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed by the FlagSet
		}
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: runreport [-json] [-window N] [-stallafter N] [-every N] <events.jsonl>")
	}
	if *every < 0 || (*every > 0 && *asJSON) {
		return fmt.Errorf("-every takes N >= 0 and applies to the text report only")
	}

	r := io.Reader(os.Stdin)
	if path := fs.Arg(0); path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	evs, err := events.ReadAll(r)
	if err != nil {
		return err
	}

	rep := build(evs, *window, *stallAfter)
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	if *every > 0 {
		if err := writeRounds(out, evs, *every); err != nil {
			return err
		}
	}
	return writeText(out, rep)
}

// Report is the full analysis of one event stream. The JSON form is the
// -json output; the text renderer reads the same struct.
type Report struct {
	// Stream shape.
	Events int `json:"events"`

	// Session identity (from session_start; empty when the stream has
	// none, e.g. a filtered sink).
	Algorithm string `json:"algorithm,omitempty"`
	Topology  string `json:"topology,omitempty"`
	N         int    `json:"n,omitempty"`
	K         int    `json:"k,omitempty"`

	// Round accounting from round_completed events.
	Rounds         int   `json:"rounds"`
	DroppedRounds  int   `json:"dropped_rounds"`
	Solved         bool  `json:"solved"`
	FinalPotential int   `json:"final_potential"`
	Proposals      int64 `json:"proposals"`
	Connections    int64 `json:"connections"`
	TokensMoved    int64 `json:"tokens_moved"`
	// AcceptanceRate is Connections ÷ Proposals (0 with no proposals): the
	// contention statistic — proposals colliding on one receiver are what
	// the Ω(Δ²) bound for blind strategies counts.
	AcceptanceRate float64 `json:"acceptance_rate"`

	// Lifecycle counters.
	EdgesAdded   int64 `json:"edges_added"`
	EdgesRemoved int64 `json:"edges_removed"`
	Checkpoints  int   `json:"checkpoints"`
	Resumes      int   `json:"resumes"`
	Cancels      int   `json:"cancels"`

	// Timing analysis, present when the stream carries round_profile
	// events (a profiled session).
	ProfiledRounds int           `json:"profiled_rounds"`
	RoundLatency   *LatencyStats `json:"round_latency,omitempty"`
	Phases         []PhaseStats  `json:"phases,omitempty"`
	CheckpointNs   *LatencyStats `json:"checkpoint_write,omitempty"`

	// Verdict is the stall detector's final health replayed over the
	// recorded (round, φ) curve: converging, plateaued, stalled — or
	// unknown on a stream with no completed rounds.
	Verdict string `json:"verdict"`
	// LiveHealth is the last health the running session reported in a
	// round_profile event (empty for unprofiled streams). With default
	// detector thresholds it agrees with Verdict.
	LiveHealth string `json:"live_health,omitempty"`
}

// LatencyStats summarizes one duration sample set with exact
// nearest-rank percentiles.
type LatencyStats struct {
	Count   int   `json:"count"`
	P50Ns   int64 `json:"p50_ns"`
	P95Ns   int64 `json:"p95_ns"`
	P99Ns   int64 `json:"p99_ns"`
	MaxNs   int64 `json:"max_ns"`
	TotalNs int64 `json:"total_ns"`
}

// PhaseStats is one row of the phase-breakdown table.
type PhaseStats struct {
	Phase   string  `json:"phase"`
	TotalNs int64   `json:"total_ns"`
	Share   float64 `json:"share"` // of the summed phase time, 0..1
	P50Ns   int64   `json:"p50_ns"`
	P95Ns   int64   `json:"p95_ns"`
}

// build computes the report. It is a pure function of the event slice
// and the detector thresholds, which is what makes runreport's output
// reproducible run over run.
func build(evs []events.Event, window, stallAfter int) Report {
	rep := Report{Events: len(evs)}
	det := profile.NewStallDetector(window, stallAfter)

	var (
		roundNs, churnNs, propNs, exchNs, redNs, ckptNs []int64
		lastRound                                       = -1
	)
	for _, ev := range evs {
		switch ev.Type {
		case events.TypeSessionStart:
			rep.Algorithm, rep.Topology = ev.Algorithm, ev.Topology
			rep.N, rep.K = ev.N, ev.K
			if lastRound < 0 {
				lastRound = ev.Round
			}
		case events.TypeCheckpointResumed:
			rep.Resumes++
		case events.TypeRoundCompleted:
			rep.Rounds++
			rep.FinalPotential = ev.Potential
			rep.Solved = ev.Done
			rep.Proposals += ev.Proposals
			rep.Connections += ev.Connections
			rep.TokensMoved += ev.TokensMoved
			if lastRound >= 0 && ev.Round > lastRound+1 {
				rep.DroppedRounds += ev.Round - lastRound - 1
			}
			lastRound = ev.Round
			rep.Verdict = det.Observe(ev.Round, ev.Potential).String()
		case events.TypeChurnApplied:
			rep.EdgesAdded += int64(ev.EdgesAdded)
			rep.EdgesRemoved += int64(ev.EdgesRemoved)
		case events.TypeCheckpointWritten:
			rep.Checkpoints++
			if ev.WriteNanos > 0 {
				ckptNs = append(ckptNs, ev.WriteNanos)
			}
		case events.TypeSessionCancel:
			rep.Cancels++
		case events.TypeSessionEnd:
			rep.Solved = ev.Solved
			rep.FinalPotential = ev.Potential
		case events.TypeRoundProfile:
			rep.ProfiledRounds++
			rep.LiveHealth = ev.Health
			roundNs = append(roundNs, ev.RoundNanos)
			churnNs = append(churnNs, ev.ChurnNanos)
			propNs = append(propNs, ev.ProposalNanos)
			exchNs = append(exchNs, ev.ExchangeNanos)
			redNs = append(redNs, ev.ReductionNanos)
		}
	}
	if rep.Verdict == "" {
		rep.Verdict = profile.HealthUnknown.String()
	}
	if rep.Proposals > 0 {
		rep.AcceptanceRate = float64(rep.Connections) / float64(rep.Proposals)
	}

	if len(roundNs) > 0 {
		rep.RoundLatency = latencyStats(roundNs)
		phases := []struct {
			name string
			ns   []int64
		}{
			{profile.PhaseChurn.String(), churnNs},
			{profile.PhaseProposal.String(), propNs},
			{profile.PhaseExchange.String(), exchNs},
			{profile.PhaseReduction.String(), redNs},
		}
		var phaseSum int64
		for _, p := range phases {
			phaseSum += sum(p.ns)
		}
		for _, p := range phases {
			total := sum(p.ns)
			share := 0.0
			if phaseSum > 0 {
				share = float64(total) / float64(phaseSum)
			}
			sorted := sortedCopy(p.ns)
			rep.Phases = append(rep.Phases, PhaseStats{
				Phase: p.name, TotalNs: total, Share: share,
				P50Ns: percentile(sorted, 0.50), P95Ns: percentile(sorted, 0.95),
			})
		}
	}
	if len(ckptNs) > 0 {
		rep.CheckpointNs = latencyStats(ckptNs)
	}
	return rep
}

// latencyStats builds the percentile summary of one sample set.
func latencyStats(ns []int64) *LatencyStats {
	sorted := sortedCopy(ns)
	return &LatencyStats{
		Count:   len(sorted),
		P50Ns:   percentile(sorted, 0.50),
		P95Ns:   percentile(sorted, 0.95),
		P99Ns:   percentile(sorted, 0.99),
		MaxNs:   sorted[len(sorted)-1],
		TotalNs: sum(sorted),
	}
}

// percentile is the exact nearest-rank percentile of an ascending
// sorted, non-empty sample: the smallest value with at least q·n samples
// at or below it.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(len(sorted))*q+0.9999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func sortedCopy(ns []int64) []int64 {
	out := append([]int64(nil), ns...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sum(ns []int64) int64 {
	var t int64
	for _, v := range ns {
		t += v
	}
	return t
}

// writeRounds renders the -every table: one row per every-th
// round_completed event of the stream, and always its last.
func writeRounds(w io.Writer, evs []events.Event, every int) error {
	var rounds []events.Event
	for _, ev := range evs {
		if ev.Type == events.TypeRoundCompleted {
			rounds = append(rounds, ev)
		}
	}
	if len(rounds) == 0 {
		return nil
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "round\tφ\tconnections\tproposals\ttokens\tchurn")
	for i, ev := range rounds {
		if i%every != 0 && i != len(rounds)-1 {
			continue
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t+%d/-%d\n",
			ev.Round, ev.Potential, ev.Connections, ev.Proposals, ev.TokensMoved,
			ev.EdgesAdded, ev.EdgesRemoved)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// writeText renders the human-readable report.
func writeText(w io.Writer, rep Report) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if rep.Algorithm != "" {
		fmt.Fprintf(tw, "run\t%s on %s (n=%d, k=%d)\n", rep.Algorithm, rep.Topology, rep.N, rep.K)
	}
	fmt.Fprintf(tw, "events\t%d\n", rep.Events)
	fmt.Fprintf(tw, "rounds\t%d completed, %d dropped from the stream\n", rep.Rounds, rep.DroppedRounds)
	fmt.Fprintf(tw, "solved\t%v (final φ=%d)\n", rep.Solved, rep.FinalPotential)
	fmt.Fprintf(tw, "proposals\t%d (%.1f%% accepted)\n", rep.Proposals, 100*rep.AcceptanceRate)
	fmt.Fprintf(tw, "connections\t%d (%d tokens moved)\n", rep.Connections, rep.TokensMoved)
	if rep.EdgesAdded > 0 || rep.EdgesRemoved > 0 {
		fmt.Fprintf(tw, "edge churn\t+%d/-%d\n", rep.EdgesAdded, rep.EdgesRemoved)
	}
	if rep.Checkpoints > 0 || rep.Resumes > 0 || rep.Cancels > 0 {
		fmt.Fprintf(tw, "lifecycle\t%d checkpoints, %d resumes, %d cancels\n",
			rep.Checkpoints, rep.Resumes, rep.Cancels)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if rep.RoundLatency != nil {
		l := rep.RoundLatency
		fmt.Fprintf(w, "\nround latency (%d profiled rounds)\n", l.Count)
		fmt.Fprintf(w, "  p50 %v  p95 %v  p99 %v  max %v  total %v\n",
			dur(l.P50Ns), dur(l.P95Ns), dur(l.P99Ns), dur(l.MaxNs), dur(l.TotalNs))

		fmt.Fprintf(w, "\nphase breakdown\n")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  phase\ttotal\tshare\tp50\tp95")
		for _, p := range rep.Phases {
			fmt.Fprintf(tw, "  %s\t%v\t%.1f%%\t%v\t%v\n",
				p.Phase, dur(p.TotalNs), 100*p.Share, dur(p.P50Ns), dur(p.P95Ns))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if rep.CheckpointNs != nil {
		c := rep.CheckpointNs
		fmt.Fprintf(w, "\ncheckpoint writes: %d, p50 %v  max %v\n", c.Count, dur(c.P50Ns), dur(c.MaxNs))
	}

	fmt.Fprintf(w, "\nverdict: %s", rep.Verdict)
	switch {
	case rep.Solved:
		fmt.Fprintf(w, " — objective reached at round %d", rep.Rounds)
	case rep.Verdict == profile.HealthStalled.String():
		fmt.Fprintf(w, " — φ stuck at %d", rep.FinalPotential)
	}
	fmt.Fprintln(w)
	if rep.LiveHealth != "" && rep.LiveHealth != rep.Verdict {
		fmt.Fprintf(w, "(live session reported %q — detector thresholds differ from this replay's)\n",
			rep.LiveHealth)
	}
	return nil
}

// dur renders nanoseconds in the usual duration notation, trimmed to
// three significant sub-unit digits so tables stay narrow.
func dur(ns int64) time.Duration {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	case d >= time.Microsecond:
		return d.Round(time.Nanosecond)
	}
	return d
}
