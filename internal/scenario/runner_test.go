package scenario_test

// Assertion-failure paths of the runner: a violated expect block is a
// *scenario.AssertionError on either transport — the runner evaluates
// every expect block itself, so a scenario that fails its assertions
// reads identically however it ran.

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mobilegossip"
	"mobilegossip/internal/scenario"
)

// failingYAML ends in phase "finish" and demands a 1-round solve no
// sharedbit run can deliver, so the expect block always trips.
const failingYAML = `version: 1
name: failing
seed: 4
algorithm: sharedbit
n: 12
k: 2
tau: 1
topology:
  kind: complete
phases:
  - name: warmup
    rounds: 2
  - name: finish
    topology:
      kind: complete
expect:
  solved: true
  solved_by: 1
`

func parseFailing(t *testing.T) *scenario.Spec {
	t.Helper()
	spec, err := scenario.Parse([]byte(failingYAML))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func runFailing(t *testing.T, opts scenario.Options) error {
	t.Helper()
	opts.Out = io.Discard
	opts.Log = io.Discard
	err := scenario.Run(parseFailing(t), opts)
	if err == nil {
		t.Fatal("a violated expect block must fail the run")
	}
	return err
}

func TestAssertionFailureLocal(t *testing.T) {
	err := runFailing(t, scenario.Options{})
	var aerr *scenario.AssertionError
	if !errors.As(err, &aerr) {
		t.Fatalf("local failure should be *AssertionError, got %T: %v", err, err)
	}
	if aerr.Scenario != "failing" || aerr.Seed != 4 || aerr.Phase != "finish" {
		t.Fatalf("AssertionError fields = %+v", aerr)
	}
	// The diff-style message names the scenario, seed, ending phase, the
	// violated assertion, and what was expected vs observed.
	for _, sub := range []string{
		`scenario "failing"`, "seed 4", `phase "finish"`,
		"solved_by", "expected rounds ≤ 1",
	} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("failure %q missing %q", err, sub)
		}
	}
}

// TestAssertionFailureRemote: the same scenario against gossipd is
// evaluated by the same runner code, so it fails with an equal
// *AssertionError: same fields, same text.
func TestAssertionFailureRemote(t *testing.T) {
	var local, remote *scenario.AssertionError
	if err := runFailing(t, scenario.Options{}); !errors.As(err, &local) {
		t.Fatalf("local failure should be *AssertionError, got %T: %v", err, err)
	}
	if err := runFailing(t, scenario.Options{Remote: startDaemon(t)}); !errors.As(err, &remote) {
		t.Fatalf("remote failure should be *AssertionError, got %T: %v", err, err)
	}
	if !reflect.DeepEqual(remote, local) {
		t.Fatalf("remote failure diverged from local:\nremote: %+v\nlocal:  %+v", remote, local)
	}
	if remote.Error() != local.Error() {
		t.Fatalf("remote failure text diverged from local:\nremote: %q\nlocal:  %q", remote, local)
	}
}

// TestAssertionFailureGrid: grid cells are checked too, client-side on
// both transports, so a failing grid is the same *AssertionError with the
// same text locally and against gossipd, naming the first failing cell's
// derived seed rather than the base seed.
func TestAssertionFailureGrid(t *testing.T) {
	spec, err := scenario.Parse([]byte(`version: 1
name: failing-grid
seed: 9
algorithm: blindmatch
topology:
  kind: complete
grid:
  n: [8, 12]
  k: [2]
  trials: 2
expect:
  solved_by: 1
`))
	if err != nil {
		t.Fatal(err)
	}
	var errs []*scenario.AssertionError
	for _, remote := range []string{"", startDaemon(t)} {
		err := scenario.Run(spec, scenario.Options{Remote: remote, Out: io.Discard, Log: io.Discard})
		var aerr *scenario.AssertionError
		if !errors.As(err, &aerr) {
			t.Fatalf("remote=%q: grid failure should be *AssertionError, got %T: %v", remote, err, err)
		}
		errs = append(errs, aerr)
	}
	if want := mobilegossip.SweepSeed(9, 0); errs[0].Seed != want {
		t.Fatalf("local failure names seed %d, want cell 0's %d", errs[0].Seed, want)
	}
	if errs[1].Error() != errs[0].Error() {
		t.Fatalf("remote grid failure diverged from local:\nremote: %q\nlocal:  %q", errs[1], errs[0])
	}
}

// TestGridRemoteEvictRevive runs a grid with more cells than the pool has
// goroutines against a daemon that keeps one session resident and evicts
// the idle ones before every run request, so cells in flight together
// evict each other and are revived. The table must equal the local one
// byte for byte.
func TestGridRemoteEvictRevive(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	spec, err := scenario.Parse([]byte(`version: 1
name: evict-grid
seed: 11
algorithm: sharedbit
tau: 1
topology:
  kind: regular
  degree: 4
grid:
  n: [16, 24]
  k: [2, 4]
  trials: 3
`))
	if err != nil {
		t.Fatal(err)
	}
	d, url := evictingDaemon(t)
	var local, remote bytes.Buffer
	if err := scenario.Run(spec, scenario.Options{Out: &local}); err != nil {
		t.Fatal(err)
	}
	if err := scenario.Run(spec, scenario.Options{Remote: url, Out: &remote}); err != nil {
		t.Fatal(err)
	}
	compare(t, "evicting remote grid vs local", remote.Bytes(), local.Bytes())
	requireEvictRevive(t, d)
}

// TestFinalCheckpoint: CheckpointAt 0 snapshots when the run finishes —
// and so does a CheckpointAt the run never reaches, instead of silently
// writing nothing — and the local and remote end-of-run snapshots are
// byte-identical.
func TestFinalCheckpoint(t *testing.T) {
	spec, err := scenario.Parse([]byte(`version: 1
name: final-ckpt
seed: 2
algorithm: sharedbit
n: 8
k: 2
tau: 1
topology:
  kind: complete
expect:
  solved: true
`))
	if err != nil {
		t.Fatal(err)
	}
	remoteAddr := startDaemon(t)
	var snapshots [][]byte
	for _, at := range []int{0, 100000} {
		tmp := t.TempDir()
		local := filepath.Join(tmp, "local.ckpt")
		var out, log bytes.Buffer
		if err := scenario.Run(spec, scenario.Options{
			CheckpointPath: local, CheckpointAt: at, Out: &out, Log: &log,
		}); err != nil {
			t.Fatal(err)
		}
		// A single-assertion expect block reads in the singular.
		if !strings.Contains(out.String(), "expect: ok (1 check)\n") {
			t.Fatalf("output missing singular expect summary:\n%s", out.String())
		}
		// The notice names the round the snapshot was actually taken at.
		if strings.Contains(log.String(), "at round 100000") || !strings.Contains(log.String(), "checkpoint written to") {
			t.Fatalf("-checkpointat %d: notice = %q", at, log.String())
		}

		remote := filepath.Join(tmp, "remote.ckpt")
		if err := scenario.Run(spec, scenario.Options{
			Remote: remoteAddr, CheckpointPath: remote, CheckpointAt: at,
			Out: io.Discard, Log: io.Discard,
		}); err != nil {
			t.Fatal(err)
		}
		lb, err := os.ReadFile(local)
		if err != nil {
			t.Fatalf("-checkpointat %d wrote no local checkpoint: %v", at, err)
		}
		rb, err := os.ReadFile(remote)
		if err != nil {
			t.Fatalf("-checkpointat %d wrote no remote checkpoint: %v", at, err)
		}
		if !bytes.Equal(lb, rb) {
			t.Fatalf("-checkpointat %d: end-of-run checkpoints differ local vs remote", at)
		}
		snapshots = append(snapshots, lb)
	}
	if !bytes.Equal(snapshots[0], snapshots[1]) {
		t.Fatal("a never-reached -checkpointat should write the same end-of-run snapshot as -checkpointat 0")
	}
}

func TestRunFileErrors(t *testing.T) {
	if err := scenario.RunFile(filepath.Join(t.TempDir(), "nope.yaml"), scenario.Options{}); err == nil {
		t.Error("RunFile on a missing path should error")
	}
	bad := filepath.Join(t.TempDir(), "bad.yaml")
	if err := os.WriteFile(bad, []byte("version: 9\nname: x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := scenario.RunFile(bad, scenario.Options{})
	if err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Errorf("RunFile on an invalid spec should surface validation, got %v", err)
	}
	if !strings.Contains(err.Error(), "bad.yaml") {
		t.Errorf("file-level error should name the file, got %v", err)
	}
}

// TestGridRejectsSingleRunOptions: checkpoints/events are single-run
// machinery; asking for them on a grid is an execution error, not an
// assertion failure.
func TestGridRejectsSingleRunOptions(t *testing.T) {
	spec, err := scenario.Parse([]byte(`version: 1
name: g
seed: 1
algorithm: blindmatch
topology:
  kind: complete
grid:
  n: [4]
  k: [1]
`))
	if err != nil {
		t.Fatal(err)
	}
	err = scenario.Run(spec, scenario.Options{
		CheckpointPath: "x.ckpt", Out: io.Discard, Log: io.Discard,
	})
	if err == nil || !strings.Contains(err.Error(), "single runs, not grids") {
		t.Fatalf("grid with -checkpoint should be refused, got %v", err)
	}
	var aerr *scenario.AssertionError
	if errors.As(err, &aerr) {
		t.Fatal("option misuse must not masquerade as an assertion failure")
	}
}
