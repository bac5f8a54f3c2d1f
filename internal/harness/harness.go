// Package harness defines the reproduction experiments E1..E27 (see
// DESIGN.md §3): for every row of the paper's Figure 1 and every supporting
// theorem/lemma, plus the extension, mobility and adversary ablations, a
// workload generator, parameter sweep and table printer that regenerates
// the result's shape — scaling exponents, head-to-head winners, and
// crossovers. Every grid runs on the internal/runner pool, so tables are
// byte-identical at any GOMAXPROCS.
package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// Table is one experiment's output: a caption, a header row, data rows and
// free-form notes (the "paper vs measured" comparison).
type Table struct {
	ID      string
	Caption string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table in aligned text form.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Caption); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderCSV writes the table as CSV: a header row, then the data rows.
// Caption and notes are emitted as comment lines ("# ...") before and
// after, which spreadsheet importers and plotting scripts can skip.
func (t *Table) RenderCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Caption); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Options tunes experiment cost. Quick shrinks sizes/trials so the full
// suite finishes in minutes on one core; the shapes remain visible.
type Options struct {
	Quick bool
	Seed  uint64
}

// Experiment regenerates one paper exhibit.
type Experiment struct {
	ID      string
	Title   string
	Exhibit string // the paper table/figure/lemma it reproduces
	Run     func(Options) (*Table, error)
}

// registry holds all experiments keyed by lower-case id.
var registry = map[string]Experiment{}

func register(e Experiment) {
	registry[strings.ToLower(e.ID)] = e
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[strings.ToLower(id)]
	return e, ok
}

// All returns every experiment sorted by id.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		// e1 < e2 < ... < e10 < ... numeric-aware ordering
		return expOrder(out[i].ID) < expOrder(out[j].ID)
	})
	return out
}

func expOrder(id string) int {
	var v int
	fmt.Sscanf(strings.ToLower(id), "e%d", &v)
	return v
}

// fmtF renders a float compactly for table cells.
func fmtF(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e9 && v > -1e9:
		return fmt.Sprintf("%d", int64(v))
	case v >= 100 || v <= -100:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
