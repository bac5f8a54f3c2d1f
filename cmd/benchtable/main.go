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
//	benchtable -parallel 8    # bound the sweep engine's worker pool
//	benchtable -json > BENCH_quick.json   # machine-readable tables
//
// Experiment grids run on the internal/runner worker pool (GOMAXPROCS
// workers by default); results are bit-identical at every -parallel value.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"mobilegossip/internal/harness"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchtable:", err)
		os.Exit(1)
	}
}

// jsonDoc is the BENCH_*.json document -json emits: schema tag, the run
// parameters, and every experiment table.
type jsonDoc struct {
	Schema    string           `json:"schema"`
	GoVersion string           `json:"go_version"`
	Quick     bool             `json:"quick"`
	Seed      uint64           `json:"seed"`
	Workers   int              `json:"workers"`
	ElapsedMS int64            `json:"elapsed_ms"`
	Tables    []*harness.Table `json:"tables"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchtable", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "", "experiment id or comma list (e1..e27); empty = all")
		quick    = fs.Bool("quick", true, "shrink sizes/trials so the full suite finishes in minutes")
		seed     = fs.Uint64("seed", 42, "experiment seed")
		list     = fs.Bool("list", false, "list experiments and exit")
		asCSV    = fs.Bool("csv", false, "emit CSV instead of aligned text")
		asJSON   = fs.Bool("json", false, "emit one BENCH-shaped JSON document instead of text")
		parallel = fs.Int("parallel", 0, "sweep worker pool size; 0 = GOMAXPROCS (results identical at any value)")
		progress = fs.Bool("progress", false, "report sweep progress to stderr")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed by the FlagSet
		}
		return err
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-4s %-55s [%s]\n", e.ID, e.Title, e.Exhibit)
		}
		return nil
	}

	opts := harness.Options{Quick: *quick, Seed: *seed, Workers: *parallel}
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

	doc := jsonDoc{
		Schema:    "mobilegossip/benchtable-v1",
		GoVersion: runtime.Version(),
		Quick:     *quick,
		Seed:      *seed,
		Workers:   *parallel,
	}
	if doc.Workers <= 0 {
		doc.Workers = runtime.GOMAXPROCS(0)
	}

	suiteStart := time.Now()
	for _, e := range todo {
		if *progress {
			cur := e.ID
			opts.OnProgress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d", cur, done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
		start := time.Now()
		tab, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		if *asJSON {
			doc.Tables = append(doc.Tables, tab)
			continue
		}
		render := tab.Render
		if *asCSV {
			render = tab.RenderCSV
		}
		if err := render(os.Stdout); err != nil {
			return err
		}
		if !*asCSV {
			fmt.Printf("-- %s finished in %v\n\n", e.ID, elapsed)
		}
	}
	if *asJSON {
		doc.ElapsedMS = time.Since(suiteStart).Milliseconds()
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	return nil
}
