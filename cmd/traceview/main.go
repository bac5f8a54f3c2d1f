// Command traceview summarizes a JSONL execution trace produced by
// gossipsim -tracefile (or any mobilegossip.NewTraceObserver sink):
// per-round proposals, accepted connections, metered control bits and
// token transfers, plus run totals and the proposal-acceptance rate.
//
// With -events the input is a session-event file (gossipsim -events)
// instead of a proposal trace: the table is built from round_completed
// events — φ, connections, churn — through the same decoder cmd/runreport
// uses, so both tools accept exactly the same files.
//
// Usage:
//
//	gossipsim -alg sharedbit -n 64 -k 8 -tracefile run.jsonl
//	traceview run.jsonl
//	traceview -every 10 run.jsonl    # print every 10th round only
//	gossipsim -alg sharedbit -n 64 -k 8 -tau 1 -events ev.jsonl
//	traceview -events ev.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"mobilegossip/internal/events"
	"mobilegossip/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "traceview:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("traceview", flag.ContinueOnError)
	every := fs.Int("every", 1, "print every Nth round (totals always cover the whole trace)")
	asEvents := fs.Bool("events", false, "treat the input as a session-event file (gossipsim -events) instead of a proposal trace")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed by the FlagSet
		}
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: traceview [-every N] [-events] <trace.jsonl>")
	}
	if *every < 1 {
		*every = 1
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()

	if *asEvents {
		return summarizeEvents(f, *every)
	}
	s, err := trace.ReadSummary(f)
	if err != nil {
		return err
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "round\tproposals\tconnections\tbits\ttokens")
	for i, rs := range s.Rounds {
		if i%*every != 0 && i != len(s.Rounds)-1 {
			continue
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\n",
			rs.Round, rs.Proposals, rs.Connections, rs.Bits, rs.Tokens)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Printf("\ntotals: %d proposals, %d connections (%.1f%% accepted), %d control bits, %d tokens moved\n",
		s.Proposals, s.Connections, 100*s.AcceptanceRate(), s.Bits, s.Tokens)
	return nil
}

// summarizeEvents renders the -events view: a per-round table from the
// stream's round_completed events plus the session_end totals, decoded
// by the same events.ReadAll path cmd/runreport uses.
func summarizeEvents(f *os.File, every int) error {
	evs, err := events.ReadAll(f)
	if err != nil {
		return err
	}
	var rounds []events.Event
	var end *events.Event
	for i, ev := range evs {
		switch ev.Type {
		case events.TypeRoundCompleted:
			rounds = append(rounds, ev)
		case events.TypeSessionEnd:
			end = &evs[i]
		}
	}
	if len(rounds) == 0 {
		return fmt.Errorf("no round_completed events in %s", f.Name())
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
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

	last := rounds[len(rounds)-1]
	solved, conns, tokens := last.Done, int64(0), int64(0)
	for _, ev := range rounds {
		conns += ev.Connections
		tokens += ev.TokensMoved
	}
	if end != nil {
		// session_end carries the authoritative totals (the stream may
		// have dropped rounds under backpressure).
		solved, conns, tokens = end.Solved, end.Connections, end.TokensMoved
	}
	fmt.Printf("\ntotals: %d rounds, solved=%v, final φ=%d, %d connections, %d tokens moved\n",
		last.Round, solved, last.Potential, conns, tokens)
	return nil
}
