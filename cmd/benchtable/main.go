// Command benchtable regenerates the paper's evaluation exhibits.
//
// Every row of the paper's Figure 1 (the table of round-complexity bounds)
// and every supporting theorem/lemma has an experiment, E1..E27 with the
// extension, mobility and adversary ablations (see DESIGN.md §3; E17 is
// retired). benchtable runs one or all of them and prints their tables;
// `benchtable -csv` at the default seed prints the bytes pinned in
// internal/harness/testdata/quick.csv.
//
// Usage:
//
//	benchtable                # run every experiment at -quick sizes
//	benchtable -exp e5        # one experiment
//	benchtable -quick=false   # full sizes (slower, tighter shapes)
//	benchtable -list          # list experiments
//	benchtable -csv           # comma-separated tables, no timing lines
//
// Experiment grids run on the internal/runner pool, GOMAXPROCS goroutines
// wide; results are bit-identical at every GOMAXPROCS.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mobilegossip/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtable:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchtable", flag.ContinueOnError)
	var (
		exp   = fs.String("exp", "", "experiment id or comma list (e1..e27); empty = all")
		quick = fs.Bool("quick", true, "shrink sizes/trials so the full suite finishes in minutes")
		seed  = fs.Uint64("seed", 42, "experiment seed")
		list  = fs.Bool("list", false, "list experiments and exit")
		asCSV = fs.Bool("csv", false, "emit CSV instead of aligned text")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed by the FlagSet
		}
		return err
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Fprintf(stdout, "%-4s %-55s [%s]\n", e.ID, e.Title, e.Exhibit)
		}
		return nil
	}

	opts := harness.Options{Quick: *quick, Seed: *seed}
	var todo []harness.Experiment
	if *exp == "" {
		todo = harness.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := harness.Lookup(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			todo = append(todo, e)
		}
	}

	for _, e := range todo {
		start := time.Now()
		tab, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		render := tab.Render
		if *asCSV {
			render = tab.RenderCSV
		}
		if err := render(stdout); err != nil {
			return err
		}
		if !*asCSV {
			fmt.Fprintf(stdout, "-- %s finished in %v\n\n", e.ID, elapsed)
		}
	}
	return nil
}
