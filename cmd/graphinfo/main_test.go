package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// edges runs the CLI with stdout redirected to a file and returns the
// edges column of its one table row.
func edges(t *testing.T, args ...string) int {
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
	if len(lines) != 2 {
		t.Fatalf("graphinfo %v: want a header and one row, got:\n%s", args, out)
	}
	n, err := strconv.Atoi(strings.Fields(lines[1])[2])
	if err != nil {
		t.Fatalf("graphinfo %v: no edge count in %q", args, lines[1])
	}
	return n
}

// TestSharedTopologyFlags: graphinfo takes the topology knobs from the
// binder gossipsim uses, so the ones its own flag list used to lack reach
// Topology.Build — -attach changes the pa family's edge count — and a bad
// enum name fails with the binder's list of valid names.
func TestSharedTopologyFlags(t *testing.T) {
	base := edges(t, "-graph", "pa", "-n", "64")
	if dense := edges(t, "-graph", "pa", "-n", "64", "-attach", "5"); dense <= base {
		t.Errorf("-attach 5 reports %d edges, default (m=3) %d: the flag did not reach the generator", dense, base)
	}
	if err := run([]string{"-adversary", "nope"}); err == nil || !strings.Contains(err.Error(), "cutrich") {
		t.Errorf("bad -adversary name: %v, want an error listing the valid names", err)
	}
}
