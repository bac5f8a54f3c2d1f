package harness

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// E1..E14 paper exhibits + E15..E21 ablations + E22..E24 mobility +
	// E25..E27 adversary; E17 is retired and its id not reused.
	all := All()
	if len(all) != 26 {
		t.Fatalf("registry has %d experiments, want 26", len(all))
	}
	for i, e := range all {
		want := i + 1
		if want >= 17 {
			want++
		}
		if expOrder(e.ID) != want {
			t.Errorf("position %d: got %s", i, e.ID)
		}
		if e.Title == "" || e.Exhibit == "" || e.Run == nil {
			t.Errorf("%s: incomplete metadata", e.ID)
		}
	}
}

func TestTableRenderCSV(t *testing.T) {
	tab := &Table{
		ID: "EX", Caption: "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "va,lue"}, {"2", "plain"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# EX: demo\n",
		"a,b\n",
		"\"va,lue\"", // comma-containing cells must be quoted
		"2,plain\n",
		"# note: a note\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV output missing %q:\n%s", want, out)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/quick.csv")

// TestAllExperimentsRunQuick executes every registered experiment at quick
// sizes and seed 42, and compares the concatenated CSV render against
// testdata/quick.csv: the full reproduction suite must stay runnable, and
// its numbers move only on purpose. Re-record with
//
//	go test ./internal/harness -run TestAllExperimentsRunQuick -update
//
// benchtable -csv prints the same bytes. Skipped under -short.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	var all bytes.Buffer
	ran := 0
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			ran++
			tab, err := e.Run(Options{Quick: true, Seed: 42})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tab.Rows) == 0 {
				t.Errorf("%s produced no rows", e.ID)
			}
			if len(tab.Columns) == 0 {
				t.Errorf("%s has no columns", e.ID)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Errorf("%s: row width %d != %d columns", e.ID, len(row), len(tab.Columns))
				}
			}
			if err := tab.Render(io.Discard); err != nil {
				t.Errorf("%s render: %v", e.ID, err)
			}
			if err := tab.RenderCSV(&all); err != nil {
				t.Errorf("%s render CSV: %v", e.ID, err)
			}
		})
	}
	if t.Failed() || ran < len(All()) {
		return // a failure or a -run filter leaves the render incomplete
	}
	golden := filepath.Join("testdata", "quick.csv")
	if *update {
		if err := os.WriteFile(golden, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to generate): %v", err)
	}
	if !bytes.Equal(all.Bytes(), want) {
		t.Errorf("quick-size tables differ from %s; see `go run ./cmd/benchtable -csv | diff %s -`, "+
			"and re-record with -update only if the change is intended", golden, "internal/harness/"+golden)
	}
}

// TestWorkerCountInvariance is the harness's determinism contract: an
// E1-style Figure-1 sweep renders byte-identical tables at GOMAXPROCS 1
// (a one-goroutine pool) and 16, for the same seed.
func TestWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep invariance check skipped in -short mode")
	}
	for _, id := range []string{"E1", "E7"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		var renders []string
		for _, procs := range []int{1, 16} {
			old := runtime.GOMAXPROCS(procs)
			tab, err := e.Run(Options{Quick: true, Seed: 42})
			runtime.GOMAXPROCS(old)
			if err != nil {
				t.Fatalf("%s GOMAXPROCS=%d: %v", id, procs, err)
			}
			var buf bytes.Buffer
			if err := tab.Render(&buf); err != nil {
				t.Fatal(err)
			}
			renders = append(renders, buf.String())
		}
		if renders[0] != renders[1] {
			t.Errorf("%s: table differs between GOMAXPROCS 1 and 16:\n%s\nvs\n%s",
				id, renders[0], renders[1])
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("e1"); !ok {
		t.Fatal("lower-case lookup failed")
	}
	if _, ok := Lookup("E14"); !ok {
		t.Fatal("E14 lookup failed")
	}
	if _, ok := Lookup("e99"); ok {
		t.Fatal("bogus id found")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID: "EX", Caption: "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"hello"},
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"EX", "demo", "a", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFmtF(t *testing.T) {
	cases := map[float64]string{
		3:      "3",
		3.5:    "3.50",
		123.4:  "123",
		-200.7: "-201",
	}
	for in, want := range cases {
		if got := fmtF(in); got != want {
			t.Errorf("fmtF(%v) = %q, want %q", in, got, want)
		}
	}
}

// Fast smoke tests: the cheap experiments run end-to-end in quick mode.
// (E1-E7 are exercised by the benchmark harness and cmd/benchtable; they
// are too slow for the unit suite at full trial counts.)
func TestQuickExperiments(t *testing.T) {
	for _, id := range []string{"E9", "E12", "E13"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		tab, err := e.Run(Options{Quick: true, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: empty table", id)
		}
		var buf bytes.Buffer
		if err := tab.Render(&buf); err != nil {
			t.Fatalf("%s render: %v", id, err)
		}
	}
}

func TestE8TransferExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e, _ := Lookup("E8")
	tab, err := e.Run(Options{Quick: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("transfer failure rate exceeded ε: %s", n)
		}
	}
}
