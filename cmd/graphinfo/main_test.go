package main

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// row runs the CLI with stdout redirected to a file and returns the fields
// of its one table row: graph, n, edges, Δ, D, α and log(n)/α.
func row(t *testing.T, args ...string) []string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("graphinfo %v: %v", args, err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 2 || len(strings.Fields(lines[1])) != 7 {
		t.Fatalf("graphinfo %v: want a header and one 7-field row, got:\n%s", args, out)
	}
	return strings.Fields(lines[1])
}

// atoi parses an integer field of a row.
func atoi(t *testing.T, field string) int {
	t.Helper()
	v, err := strconv.Atoi(field)
	if err != nil {
		t.Fatalf("not an integer field: %q", field)
	}
	return v
}

// TestInspectKnownFamilies pins Δ, D and α — the parameters every bound in
// the paper is stated in — on families small enough (n ≤ 22) for α to be
// computed exactly, which the row shows without the "~" estimate marker.
// The double star is the paper's Ω(Δ²) lower-bound construction: half the
// vertices hang off each of two adjacent hubs.
func TestInspectKnownFamilies(t *testing.T) {
	cases := []struct {
		graph       string
		n           int
		delta, diam int
		alpha       float64
	}{
		{"cycle", 16, 2, 8, 4.0 / 16},
		{"complete", 10, 9, 1, 1},
		// Star α: the minimizing S is ⌊n/2⌋ leaves, whose boundary is just
		// the hub — α = 1/6 at n = 12.
		{"star", 12, 11, 2, 1.0 / 6},
		{"doublestar", 16, 8, 3, 1.0 / 8},
	}
	for _, tc := range cases {
		f := row(t, "-graph", tc.graph, "-n", strconv.Itoa(tc.n))
		if atoi(t, f[1]) != tc.n || atoi(t, f[3]) != tc.delta || atoi(t, f[4]) != tc.diam {
			t.Errorf("%s: n, Δ, D = %s, %s, %s, want %d, %d, %d", tc.graph, f[1], f[3], f[4], tc.n, tc.delta, tc.diam)
		}
		if alpha, err := strconv.ParseFloat(f[5], 64); err != nil || math.Abs(alpha-tc.alpha) > 5e-5 {
			t.Errorf("%s: α = %s, want exactly %.4f", tc.graph, f[5], tc.alpha)
		}
		if lg, err := strconv.ParseFloat(f[6], 64); err != nil || lg <= 0 {
			t.Errorf("%s: log(n)/α = %s, want > 0", tc.graph, f[6])
		}
	}
}

// TestInspectLargeUsesEstimate: above n = 22 α is estimated, and the row
// marks it "~".
func TestInspectLargeUsesEstimate(t *testing.T) {
	f := row(t, "-graph", "regular", "-degree", "4", "-n", "64", "-seed", "3")
	if atoi(t, f[3]) != 4 {
		t.Errorf("Δ = %s, want 4 on a 4-regular graph", f[3])
	}
	alpha, err := strconv.ParseFloat(strings.TrimPrefix(f[5], "~"), 64)
	if !strings.HasPrefix(f[5], "~") || err != nil || alpha <= 0 || alpha > 2 {
		t.Errorf("α = %s, want a ~-marked estimate in (0, 2]", f[5])
	}
}

// TestSharedTopologyFlags: graphinfo takes the topology knobs from the
// binder gossipsim uses, so the ones its own flag list used to lack reach
// Topology.Build — -attach changes the pa family's edge count — and a bad
// enum name fails with the binder's list of valid names.
func TestSharedTopologyFlags(t *testing.T) {
	base := atoi(t, row(t, "-graph", "pa", "-n", "64")[2])
	if dense := atoi(t, row(t, "-graph", "pa", "-n", "64", "-attach", "5")[2]); dense <= base {
		t.Errorf("-attach 5 reports %d edges, default (m=3) %d: the flag did not reach the generator", dense, base)
	}
	if err := run([]string{"-adversary", "nope"}); err == nil || !strings.Contains(err.Error(), "cutrich") {
		t.Errorf("bad -adversary name: %v, want an error listing the valid names", err)
	}
}
