// Command clidoc generates docs/cli.md, the flag reference for this
// module's CLIs, from the tools' own flag definitions: it runs each
// command with -h and captures the usage text the flag package renders,
// so the reference cannot drift from the code without the diff showing.
//
// Usage:
//
//	go run ./cmd/clidoc -out docs/cli.md          # (re)generate
//	go run ./cmd/clidoc -check docs/cli.md        # verify, exit 1 on drift
//
// `make docs` wraps the first form, `make docs-verify` the second; CI
// runs docs-verify in the build job so a flag added, removed, or
// reworded without regenerating the reference fails the pipeline.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// tools lists the documented commands in reference order with the
// one-line summaries the generated page shows. A name may carry a
// subcommand ("gossipsim run"). Adding a CLI? Add it here and run
// `make docs`.
var tools = []struct{ name, summary string }{
	{"gossipsim", "run gossip simulations (single sessions, sweeps, checkpoints, events, metrics; -remote drives a gossipd)"},
	{"gossipsim run", "execute a declarative scenario file: phased timelines, parameter grids, expected-outcome assertions (DESIGN.md §15)"},
	{"gossipd", "serve concurrent simulation sessions over HTTP with checkpoint-backed eviction"},
	{"graphinfo", "report topology structure (Δ, D, α) and dynamic-schedule churn"},
	{"benchtable", "regenerate the paper's evaluation tables (experiments E1..E27)"},
	{"runreport", "analyze a -events JSONL file: proposals and acceptance rate, latency percentiles, phase breakdown, convergence verdict, and with -every a per-round table"},
	{"benchgate", "compare a benchmark run against the committed baseline (CI regression gate)"},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "clidoc:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("clidoc", flag.ContinueOnError)
	var (
		out   = fs.String("out", "docs/cli.md", "write the generated reference to this file")
		check = fs.String("check", "", "verify this file matches the generated reference instead of writing; exit 1 on drift")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed by the FlagSet
		}
		return err
	}

	doc, err := generate()
	if err != nil {
		return err
	}
	if *check != "" {
		committed, err := os.ReadFile(*check)
		if err != nil {
			return fmt.Errorf("reading committed reference: %w (run `make docs` to create it)", err)
		}
		if !bytes.Equal(committed, doc) {
			return fmt.Errorf("%s is out of date with the CLIs' flag definitions: run `make docs` and commit the result", *check)
		}
		fmt.Printf("clidoc: %s matches the flag definitions of %d commands\n", *check, len(tools))
		return nil
	}
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		return err
	}
	fmt.Printf("clidoc: wrote %s (%d commands)\n", *out, len(tools))
	return nil
}

// generate builds the full markdown document from live -h output.
func generate() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(`# CLI reference

<!-- GENERATED FILE — DO NOT EDIT BY HAND. -->

This reference is generated from the commands' own flag definitions by
` + "`make docs` (`go run ./cmd/clidoc`)" + `: each section below is the
verbatim -h output of the tool it documents. CI runs ` + "`make docs-verify`" + `,
which regenerates the document and fails the build if this file drifts
from the code — so what you read here is what the binaries accept.

Worked examples live in the README ("Quick start", "Observability") and
in each command's package documentation (` + "`go doc ./cmd/<tool>`" + `).
`)
	for _, t := range tools {
		usage, err := captureUsage(t.name)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&buf, "\n## %s\n\n%s\n\n```text\n%s```\n", t.name, t.summary, usage)
	}
	return buf.Bytes(), nil
}

// captureUsage runs the tool with -h and returns the usage text the
// flag package prints. Words after the first are subcommands passed
// through before -h. The tools exit 0 on -h, so any failure here is a
// real build or runtime error.
func captureUsage(tool string) ([]byte, error) {
	words := strings.Fields(tool)
	args := append([]string{"run", "./cmd/" + words[0]}, words[1:]...)
	cmd := exec.Command("go", append(args, "-h")...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("%s -h: %w\n%s", tool, err, out)
	}
	return out, nil
}
