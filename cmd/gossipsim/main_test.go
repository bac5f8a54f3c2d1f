package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mobilegossip/internal/daemon"
)

// TestRunFlagErrors pins the CLI error paths, including the refusal of
// sweep flags: an n × k × trials grid is a scenario's grid: block, run
// with `gossipsim run`.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-alg", "nope"},
		{"-graph", "nope"},
		{"-adversary", "nope"},
		{"-adversary", "cutrich", "-advbudget", "-1"},
		{"-n", "0"},
		{"-k", "x"},
		{"-n", "32,64"},
		{"-k", "4,8"},
		{"-trials", "2"},
		{"-parallel", "4"},
		{"-json"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// runCaptured runs the CLI with stdout redirected to a file and returns
// what it printed, minus the one row that is wall-clock.
func runCaptured(t *testing.T, args ...string) string {
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
		t.Fatalf("gossipsim %v: %v", args, err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return regexp.MustCompile(`(?m)^wall time.*\n`).ReplaceAllString(string(out), "")
}

// TestFlagRunLocalVsRemote is the core of `make determinism-remote`
// inside go test: a flag-driven run — fresh with a mid-run checkpoint,
// then resumed from it — prints the same stdout and writes the same
// -events and -checkpoint bytes in-process and against a gossipd.
func TestFlagRunLocalVsRemote(t *testing.T) {
	d, err := daemon.New(daemon.Config{StateDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer func() {
		srv.Close()
		d.Close()
	}()

	dir := t.TempDir()
	events, ckpt := filepath.Join(dir, "events.jsonl"), filepath.Join(dir, "run.ckpt")
	// artifacts runs the CLI and collects (and clears) everything it left.
	type artifacts struct{ stdout, events, ckpt string }
	collect := func(args ...string) artifacts {
		a := artifacts{stdout: runCaptured(t, args...)}
		for path, into := range map[string]*string{events: &a.events, ckpt: &a.ckpt} {
			got, err := os.ReadFile(path)
			if err != nil || len(got) == 0 {
				t.Fatalf("gossipsim %v: %s: %d bytes, %v", args, path, len(got), err)
			}
			*into = string(got)
			os.Remove(path)
		}
		return a
	}

	fresh := []string{"-alg", "sharedbit", "-graph", "waypoint", "-n", "200", "-k", "6", "-tau", "1", "-seed", "7",
		"-adversary", "bipartition", "-events", events, "-checkpoint", ckpt, "-checkpointat", "5"}
	midRun := filepath.Join(dir, "midrun.ckpt")
	resumed := []string{"-resume", midRun, "-events", events, "-checkpoint", ckpt}
	for _, args := range [][]string{fresh, resumed} {
		local := collect(args...)
		remote := collect(append([]string{"-remote", srv.URL}, args...)...)
		if local != remote {
			t.Errorf("gossipsim %v differs local vs -remote:\nlocal stdout:\n%s\nremote stdout:\n%s\nevents equal: %v, checkpoints equal: %v",
				args, local.stdout, remote.stdout, local.events == remote.events, local.ckpt == remote.ckpt)
		}
		if !strings.Contains(local.stdout, "checkpoint written to") || !strings.Contains(local.stdout, "solved        true") {
			t.Errorf("gossipsim %v: stdout lacks the checkpoint notice or a solved table:\n%s", args, local.stdout)
		}
		// The fresh leg's round-5 snapshot is what the second leg resumes.
		if err := os.WriteFile(midRun, []byte(local.ckpt), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
