// Command benchgate is the CI benchmark-regression gate: it parses `go test
// -bench -benchmem` output, compares ns/op and allocs/op against a committed
// BENCH-shaped JSON baseline with a relative tolerance, and exits nonzero on
// regression — locking in the performance of the simulation core instead of
// letting it erode silently.
//
// Usage:
//
//	go test -bench=BenchmarkEngineRound -benchmem -benchtime=500x -run='^$' . |
//	    go run ./cmd/benchgate -baseline BENCH_core.json -out BENCH_core.fresh.json
//
//	go test -bench=... | go run ./cmd/benchgate -out BENCH_core.json   # (re)write a baseline
//
// Comparison rules, per baseline benchmark:
//
//   - ns/op may grow by at most -tolerance (default 0.15, i.e. ±15%).
//   - allocs/op may grow by at most the same factor — so a 0-alloc baseline
//     admits no allocation at all, pinning the engine's steady-state
//     0 allocs/op invariant.
//   - a benchmark present in the baseline but missing from the fresh run
//     fails the gate (renames must update the baseline deliberately).
//   - a benchmark present in the fresh run but missing from the baseline
//     fails the gate too, listing the added rows: new benchmarks enter the
//     gate by regenerating the baseline (make bench-baseline), never by
//     slipping past it ungated.
//   - -ratio 'ROW,BASEROW,MAX' (repeatable) additionally pins one fresh
//     row's ns/op to at most MAX × another fresh row's — both measured in
//     the same run, so the check is machine-independent. The profiling
//     overhead gate uses it: the profiled engine row may cost at most
//     1.25× the unprofiled one (see the Makefile bench-gate comment for
//     why the bound is looser than the measured overhead).
//
// The fresh results are always written to -out (when given) in the same
// BENCH JSON shape, so CI can upload them as a build artifact and a baseline
// refresh is one file copy.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchJSON is the BENCH_*.json document shape.
type benchJSON struct {
	Schema    string     `json:"schema"`
	GoVersion string     `json:"go_version"`
	Benchtime string     `json:"benchtime,omitempty"`
	Rows      []benchRow `json:"benchmarks"`
}

type benchRow struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	var (
		baseline  = fs.String("baseline", "", "baseline BENCH JSON to compare against (empty = no gate, just record)")
		out       = fs.String("out", "", "write the fresh results to this BENCH JSON file")
		input     = fs.String("input", "-", "go-test bench output to read (- = stdin)")
		tolerance = fs.Float64("tolerance", 0.15, "allowed relative growth in ns/op and allocs/op")
		benchtime = fs.String("benchtime", "", "benchtime tag recorded in the output document")
	)
	var ratios []ratioCheck
	fs.Func("ratio", "pin one fresh row's ns/op to at most MAX× another's, as 'ROW,BASEROW,MAX' (repeatable; rows named as in the BENCH JSON)", func(s string) error {
		rc, err := parseRatio(s)
		if err != nil {
			return err
		}
		ratios = append(ratios, rc)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed by the FlagSet
		}
		return err
	}

	var r io.Reader = os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	fresh, err := parseBench(r)
	if err != nil {
		return err
	}
	if len(fresh) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}

	if *out != "" {
		doc := benchJSON{
			Schema:    "mobilegossip/bench-core-v1",
			GoVersion: runtime.Version(),
			Benchtime: *benchtime,
			Rows:      fresh,
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("recorded %d benchmarks to %s\n", len(fresh), *out)
	}

	byName := make(map[string]benchRow, len(fresh))
	for _, row := range fresh {
		byName[row.Name] = row
	}
	failures := 0
	// Ratio pins compare two rows of the same fresh run, so they apply
	// with or without a baseline document.
	for _, rc := range ratios {
		got, ok1 := byName[rc.name]
		base, ok2 := byName[rc.base]
		switch {
		case !ok1 || !ok2:
			fmt.Printf("FAIL ratio %s/%s: row missing from the fresh run\n", rc.name, rc.base)
			failures++
		case base.NsPerOp <= 0:
			fmt.Printf("FAIL ratio %s/%s: base row has no ns/op\n", rc.name, rc.base)
			failures++
		case got.NsPerOp > rc.max*base.NsPerOp:
			fmt.Printf("FAIL ratio %-28s ns/op %.0f > %.2f× %s (%.0f, ratio %.3f)\n",
				rc.name, got.NsPerOp, rc.max, rc.base, base.NsPerOp, got.NsPerOp/base.NsPerOp)
			failures++
		default:
			fmt.Printf("ok   ratio %-28s ns/op %.0f ≤ %.2f× %s (ratio %.3f)\n",
				rc.name, got.NsPerOp, rc.max, rc.base, got.NsPerOp/base.NsPerOp)
		}
	}

	if *baseline == "" {
		if failures > 0 {
			return fmt.Errorf("%d ratio pin(s) failed", failures)
		}
		return nil
	}
	buf, err := os.ReadFile(*baseline)
	if err != nil {
		return err
	}
	var base benchJSON
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", *baseline, err)
	}
	if err := checkSchema(base.Schema); err != nil {
		return fmt.Errorf("baseline %s: %w", *baseline, err)
	}
	if len(base.Rows) == 0 {
		// Gating against an empty baseline would pass vacuously.
		return fmt.Errorf("baseline %s contains no benchmark rows", *baseline)
	}

	baseNames := make(map[string]bool, len(base.Rows))
	for _, row := range base.Rows {
		baseNames[row.Name] = true
	}
	// Fresh rows the baseline has never seen would otherwise pass silently
	// and run forever ungated; surface them as an explicit diff.
	var added []string
	for _, row := range fresh {
		if !baseNames[row.Name] {
			added = append(added, row.Name)
		}
	}
	if len(added) > 0 {
		sort.Strings(added)
		for _, name := range added {
			fmt.Printf("FAIL %-28s new benchmark missing from the baseline (regenerate with make bench-baseline)\n", name)
		}
		failures += len(added)
	}
	for _, want := range base.Rows {
		got, ok := byName[want.Name]
		if !ok {
			fmt.Printf("FAIL %-28s missing from the fresh run\n", want.Name)
			failures++
			continue
		}
		ok = true
		if lim := want.NsPerOp * (1 + *tolerance); got.NsPerOp > lim {
			fmt.Printf("FAIL %-28s ns/op %.0f > %.0f (baseline %.0f %+.1f%%)\n",
				want.Name, got.NsPerOp, lim, want.NsPerOp,
				100*(got.NsPerOp/want.NsPerOp-1))
			failures++
			ok = false
		}
		if lim := want.AllocsPerOp * (1 + *tolerance); got.AllocsPerOp > lim {
			fmt.Printf("FAIL %-28s allocs/op %.0f > baseline %.0f (tolerance admits %.1f)\n",
				want.Name, got.AllocsPerOp, want.AllocsPerOp, lim)
			failures++
			ok = false
		}
		if ok {
			fmt.Printf("ok   %-28s ns/op %.0f (baseline %.0f %+.1f%%), allocs/op %.0f\n",
				want.Name, got.NsPerOp, want.NsPerOp,
				100*(got.NsPerOp/want.NsPerOp-1), got.AllocsPerOp)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d benchmark regression(s) against %s (±%.0f%% tolerance)",
			failures, *baseline, 100**tolerance)
	}
	fmt.Printf("bench gate passed: %d benchmarks within ±%.0f%% of %s\n",
		len(base.Rows), 100**tolerance, *baseline)
	return nil
}

// acceptedSchemas are the BENCH document schemas this tool understands: its
// native bench-core documents. An empty tag is tolerated for hand-written
// baselines.
var acceptedSchemas = map[string]bool{
	"":                           true,
	"mobilegossip/bench-core-v1": true,
}

// checkSchema rejects baselines from a future or foreign schema instead of
// silently comparing fields that may have changed meaning.
func checkSchema(schema string) error {
	if acceptedSchemas[schema] {
		return nil
	}
	known := make([]string, 0, len(acceptedSchemas))
	for s := range acceptedSchemas {
		if s != "" {
			known = append(known, s)
		}
	}
	sort.Strings(known)
	return fmt.Errorf("unsupported schema %q (accepted: %s)", schema, strings.Join(known, ", "))
}

// ratioCheck is one -ratio pin: the fresh ns/op of row name must be at
// most max × the fresh ns/op of row base.
type ratioCheck struct {
	name, base string
	max        float64
}

// parseRatio parses the 'ROW,BASEROW,MAX' form of the -ratio flag.
func parseRatio(s string) (ratioCheck, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return ratioCheck{}, fmt.Errorf("-ratio wants 'ROW,BASEROW,MAX', got %q", s)
	}
	max, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
	if err != nil || max <= 0 {
		return ratioCheck{}, fmt.Errorf("-ratio %q: MAX %q is not a positive number", s, parts[2])
	}
	name, base := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
	if name == "" || base == "" {
		return ratioCheck{}, fmt.Errorf("-ratio %q: empty row name", s)
	}
	return ratioCheck{name: name, base: base, max: max}, nil
}

// benchLine matches `go test -bench -benchmem` result lines, e.g.
//
//	BenchmarkEngineRound/seq_n256_k32-8  500  94619 ns/op  0 B/op  0 allocs/op
var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)
	bytesOp   = regexp.MustCompile(`([0-9.]+) B/op`)
	allocsOp  = regexp.MustCompile(`([0-9.]+) allocs/op`)
)

// parseBench extracts rows from go-test benchmark output. The -<GOMAXPROCS>
// suffix is stripped from names so baselines compare across machines.
func parseBench(r io.Reader) ([]benchRow, error) {
	var rows []benchRow
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		row := benchRow{
			Name:       strings.TrimPrefix(m[1], "Benchmark"),
			Iterations: iters,
			NsPerOp:    ns,
		}
		rest := m[4]
		if bm := bytesOp.FindStringSubmatch(rest); bm != nil {
			row.BytesPerOp, _ = strconv.ParseFloat(bm[1], 64)
		}
		if am := allocsOp.FindStringSubmatch(rest); am != nil {
			row.AllocsPerOp, _ = strconv.ParseFloat(am[1], 64)
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}
