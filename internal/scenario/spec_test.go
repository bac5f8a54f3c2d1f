package scenario

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"mobilegossip"
	"mobilegossip/internal/wire"
)

// minimalYAML is the smallest valid scenario.
const minimalYAML = `version: 1
name: minimal
seed: 3
algorithm: sharedbit
n: 8
k: 2
topology:
  kind: complete
`

func TestParseMinimal(t *testing.T) {
	spec, err := Parse([]byte(minimalYAML))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "minimal" || spec.N != 8 || spec.K != 2 || spec.Seed != 3 {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.Topology.Kind != "complete" {
		t.Fatalf("topology = %+v", spec.Topology)
	}
}

func TestParseJSONPassthrough(t *testing.T) {
	src := `{"version": 1, "name": "json", "seed": 1, "algorithm": "blindmatch",
	         "n": 4, "k": 2, "topology": {"kind": "cycle"}}`
	spec, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "json" || spec.Algorithm != "blindmatch" {
		t.Fatalf("spec = %+v", spec)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	src := strings.Replace(minimalYAML, "seed: 3", "seed: 3\nspeed: 9", 1)
	_, err := Parse([]byte(src))
	if err == nil || !strings.Contains(err.Error(), "speed") {
		t.Fatalf("unknown top-level field should be rejected by name, got %v", err)
	}
	src = strings.Replace(minimalYAML, "  kind: complete", "  kind: complete\n  radios: 2", 1)
	_, err = Parse([]byte(src))
	if err == nil || !strings.Contains(err.Error(), "radios") {
		t.Fatalf("unknown topology field should be rejected by name, got %v", err)
	}
	// The removed Relabel knob's key is an unknown field like any other.
	src = strings.Replace(minimalYAML, "  kind: complete", "  kind: complete\n  relabel: bfs", 1)
	_, err = Parse([]byte(src))
	if err == nil || !strings.Contains(err.Error(), "relabel") {
		t.Fatalf("the removed relabel field should be rejected by name, got %v", err)
	}
}

// edit reparses minimalYAML with one line replaced.
func edit(t *testing.T, old, new string) error {
	t.Helper()
	src := strings.Replace(minimalYAML, old, new, 1)
	if src == minimalYAML && old != new {
		t.Fatalf("edit %q -> %q did not apply", old, new)
	}
	_, err := Parse([]byte(src))
	return err
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name, old, new, wantSub string
	}{
		{"missing version", "version: 1\n", "", `missing required field "version"`},
		{"future version", "version: 1", "version: 9", "unsupported version 9"},
		{"missing name", "name: minimal\n", "", `missing required field "name"`},
		{"bad name", "name: minimal", "name: MiXeD", "lowercase"},
		{"missing algorithm", "algorithm: sharedbit\n", "", `missing required field "algorithm"`},
		{"bad algorithm", "algorithm: sharedbit", "algorithm: quantum", `unknown algorithm "quantum"`},
		{"n too small", "n: 8", "n: 1", "n must be at least 2"},
		{"k zero", "k: 2", "k: 0", "k must be at least 1"},
		{"k over n", "k: 2", "k: 9", "k must be in [1, n=8]"},
		{"negative tau", "seed: 3", "seed: 3\ntau: -1", "tau must be >= 0"},
		{"epsilon too big", "seed: 3", "seed: 3\nepsilon: 1.5", "epsilon must be in [0, 1)"},
		{"negative max_rounds", "seed: 3", "seed: 3\nmax_rounds: -4", "max_rounds must be >= 0"},
		{"missing topology kind", "  kind: complete", "  degree: 3", `missing required field "topology.kind"`},
		{"bad topology kind", "kind: complete", "kind: mesh", `unknown topology "mesh"`},
		{"crowdedbin needs static", "algorithm: sharedbit", "algorithm: crowdedbin\ntau: 2", "crowdedbin requires a static topology"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := edit(t, c.old, c.new)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error = %q, want substring %q", err, c.wantSub)
			}
		})
	}
}

func TestPhaseValidation(t *testing.T) {
	phased := func(phases string) string {
		return minimalYAML + "phases:\n" + phases
	}
	cases := []struct {
		name, src, wantSub string
	}{
		{"single phase", phased("  - name: only\n"), "at least 2 phases"},
		{"unnamed phase", phased("  - name: a\n    rounds: 5\n  - rounds: 5\n"), `missing required field "name"`},
		{"duplicate names", phased("  - name: a\n    rounds: 5\n  - name: a\n"), `duplicate phase name "a"`},
		{"zero rounds mid-timeline", phased("  - name: a\n  - name: b\n    rounds: 5\n"), "only valid on the last phase"},
		{"phase 0 topology", phased("  - name: a\n    rounds: 5\n    topology:\n      kind: cycle\n  - name: b\n"), "set its topology/tau at the top level"},
		{"phase topology kind", phased("  - name: a\n    rounds: 5\n  - name: b\n    topology:\n      kind: mesh\n"), `unknown topology "mesh"`},
		{"negative phase tau", phased("  - name: a\n    rounds: 5\n  - name: b\n    tau: -2\n"), "tau must be >= 0"},
		{"max_rounds with fixed timeline", strings.Replace(
			phased("  - name: a\n    rounds: 5\n  - name: b\n    rounds: 5\n"),
			"seed: 3", "seed: 3\nmax_rounds: 50", 1),
			"max_rounds conflicts with a fully fixed-length timeline"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.src))
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error = %q, want substring %q", err, c.wantSub)
			}
		})
	}
}

func TestGridValidation(t *testing.T) {
	base := strings.Replace(strings.Replace(minimalYAML, "n: 8\n", "", 1), "k: 2\n", "", 1)
	cases := []struct {
		name, src, wantSub string
	}{
		{"grid n too small", base + "grid:\n  n: [1]\n  k: [1]\n", "grid.n"},
		{"grid k too small", base + "grid:\n  n: [4]\n  k: [0]\n", "grid.k"},
		{"grid k over n", base + "grid:\n  n: [4]\n  k: [8]\n", "k exceeds n"},
		{"grid with phases", minimalYAML +
			"grid:\n  n: [4]\n  k: [2]\n" +
			"phases:\n  - name: a\n    rounds: 5\n  - name: b\n",
			"mutually exclusive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.src))
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error = %q, want substring %q", err, c.wantSub)
			}
		})
	}

	// A grid axis excuses the matching missing top-level field.
	spec, err := Parse([]byte(base + "grid:\n  n: [4, 8]\n  k: [1, 2]\n  trials: 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	pts := spec.points()
	if len(pts) != 4 || pts[0] != (gridPoint{4, 1}) || pts[3] != (gridPoint{8, 2}) {
		t.Fatalf("points = %v", pts)
	}
}

func TestExpectValidationSurfaces(t *testing.T) {
	err := edit(t, "seed: 3", "seed: 3\nexpect:\n  solved_by: -1")
	if err == nil || !strings.Contains(err.Error(), "solved_by") {
		t.Fatalf("invalid expect should be rejected, got %v", err)
	}
}

func TestPhaseHelpers(t *testing.T) {
	src := minimalYAML + `phases:
  - name: a
    rounds: 10
  - name: b
    rounds: 20
    topology:
      kind: cycle
  - name: c
`
	spec, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.phaseStarts(); got[0] != 0 || got[1] != 10 || got[2] != 30 {
		t.Fatalf("phaseStarts = %v", got)
	}
	for r, want := range map[int]string{1: "a", 10: "a", 11: "b", 30: "b", 31: "c", 500: "c"} {
		if got := spec.phaseAt(r); got != want {
			t.Errorf("phaseAt(%d) = %q, want %q", r, got, want)
		}
	}
	if spec.effectiveMaxRounds() != 0 {
		t.Fatalf("open-ended timeline should keep max_rounds 0, got %d", spec.effectiveMaxRounds())
	}

	fixed := strings.Replace(src, "  - name: c\n", "  - name: c\n    rounds: 5\n", 1)
	spec, err = Parse([]byte(fixed))
	if err != nil {
		t.Fatal(err)
	}
	if spec.effectiveMaxRounds() != 35 {
		t.Fatalf("fixed timeline should cap the run at 35 rounds, got %d", spec.effectiveMaxRounds())
	}
}

// TestConfigMapping: a spec's create request lowers through the same
// wire→engine topology mapping the daemon uses, including named topology
// and adversary kinds, and surfaces unknown names rather than silently
// dropping them.
func TestConfigMapping(t *testing.T) {
	config := func(s *Spec) (mobilegossip.Config, error) {
		return wire.ConfigFromWire(s.CreateRequest(s.N, s.K, s.Seed, false))
	}
	src := strings.Replace(minimalYAML,
		"  kind: complete",
		"  kind: waypoint\n  radius: 0.3\n  adversary: blackout\n  adv_budget: 4",
		1)
	spec, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.N != 8 || cfg.K != 2 || cfg.Seed != 3 {
		t.Fatalf("config = %+v", cfg)
	}
	if cfg.Topology.Radius != 0.3 || cfg.Topology.AdvBudget != 4 {
		t.Fatalf("topology params not mapped: %+v", cfg.Topology)
	}

	for _, bad := range []struct{ old, new, wantSub string }{
		{"  adversary: blackout", "  adversary: gremlin", `"gremlin"`},
		{"  kind: waypoint", "  kind: teleport", `"teleport"`},
	} {
		spec, err := Parse([]byte(strings.Replace(src, bad.old, bad.new, 1)))
		if err == nil {
			_, err = config(spec)
		}
		if err == nil || !strings.Contains(err.Error(), bad.wantSub) {
			t.Errorf("replacing %q: want error naming %s, got %v", bad.old, bad.wantSub, err)
		}
	}
}

// TestEncodeRoundTrip: Parse∘EncodeYAML is a fixed point on every
// committed scenario and on a synthetic spec exercising all field groups.
func TestEncodeRoundTrip(t *testing.T) {
	full := `version: 1
name: everything
description: 'exercises: every optional block'
seed: 18446744073709551615
algorithm: sharedbit
n: 64
k: 8
tau: 3
epsilon: 0.5
tag_bits: 2
topology:
  kind: waypoint
  radius: 0.25
  speed: 0.01
  pause: 2
  adversary: blackout
  adv_budget: 10
  adv_period: 4
phases:
  - name: first
    rounds: 10
  - name: second
    rounds: 0
    tau: 5
    topology:
      kind: gnp
      p: 0.125
expect:
  solved: true
  solved_by: 500
  min_rounds: 10
  max_final_potential: 0
  min_coverage: 0.75
  max_churn_per_round: 12.5
  min_tokens_moved: 1
  max_tokens_moved: 100000
`
	spec, err := Parse([]byte(full))
	if err != nil {
		t.Fatal(err)
	}
	once := spec.EncodeYAML()
	spec2, err := Parse(once)
	if err != nil {
		t.Fatalf("re-parsing emitted YAML: %v\n%s", err, once)
	}
	twice := spec2.EncodeYAML()
	if !bytes.Equal(once, twice) {
		t.Fatalf("EncodeYAML is not a fixed point:\nfirst:\n%s\nsecond:\n%s", once, twice)
	}

	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed scenarios found: %v", err)
	}
	for _, path := range paths {
		spec, err := ParseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		once := spec.EncodeYAML()
		spec2, err := Parse(once)
		if err != nil {
			t.Fatalf("%s: re-parsing emitted YAML: %v\n%s", path, err, once)
		}
		if twice := spec2.EncodeYAML(); !bytes.Equal(once, twice) {
			t.Fatalf("%s: EncodeYAML is not a fixed point", path)
		}
	}
}
