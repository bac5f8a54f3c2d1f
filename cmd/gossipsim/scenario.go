package main

// The `gossipsim run` subcommand: execute a declarative scenario file
// (DESIGN.md §15) — locally or against a gossipd daemon — instead of
// assembling a run from individual flags.

import (
	"flag"
	"fmt"
	"os"

	"mobilegossip/internal/scenario"
)

// runScenario implements `gossipsim run [flags] scenario.yaml`.
func runScenario(args []string) error {
	fs := flag.NewFlagSet("gossipsim run", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: gossipsim run [flags] scenario.yaml")
		fmt.Fprintln(fs.Output(), "")
		fmt.Fprintln(fs.Output(), "Executes a declarative scenario file (YAML or JSON, version 1): seed,")
		fmt.Fprintln(fs.Output(), "algorithm, topology and adversary knobs, phased timelines that rebind")
		fmt.Fprintln(fs.Output(), "the topology mid-run, parameter grids, and expected-outcome assertions")
		fmt.Fprintln(fs.Output(), "evaluated after the run (a violated assertion exits nonzero). Output is")
		fmt.Fprintln(fs.Output(), "byte-identical between local and -remote execution; progress")
		fmt.Fprintln(fs.Output(), "notices go to stderr so stdout stays comparable.")
		fmt.Fprintln(fs.Output(), "")
		fs.PrintDefaults()
	}
	fs.Int("engineworkers", 0, "accepted and ignored: every round runs on one goroutine")
	var (
		remoteF  = fs.String("remote", "", "run against the gossipd daemon at this address (host:port) instead of in-process")
		eventsF  = fs.String("events", "", "write the session's events as JSONL to this file (single runs only)")
		ckptFile = fs.String("checkpoint", "", "write a checkpoint to this file at round -checkpointat, then keep running (single runs only)")
		ckptAt   = fs.Int("checkpointat", 0, "round at which -checkpoint snapshots the run (0 = when the run finishes)")
		resumeF  = fs.String("resume", "", "resume from this checkpoint file; remaining phase boundaries still apply")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("gossipsim run: expected exactly one scenario file, got %d arguments", fs.NArg())
	}
	return scenario.RunFile(fs.Arg(0), scenario.Options{
		Remote:         *remoteF,
		EventsPath:     *eventsF,
		CheckpointPath: *ckptFile,
		CheckpointAt:   *ckptAt,
		ResumePath:     *resumeF,
		Out:            os.Stdout,
		Log:            os.Stderr,
	})
}
