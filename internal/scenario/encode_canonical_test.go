package scenario

import (
	"reflect"
	"testing"

	"mobilegossip/client"
	"mobilegossip/internal/outcome"
)

// unsetFields lists the fields under v still at their zero value,
// following pointers and, for a list, its last element (so a list can
// also show an entry with its optional fields omitted).
func unsetFields(v reflect.Value, path string) []string {
	switch v.Kind() {
	case reflect.Struct:
		var out []string
		for i := 0; i < v.NumField(); i++ {
			out = append(out, unsetFields(v.Field(i), path+"."+v.Type().Field(i).Name)...)
		}
		return out
	case reflect.Ptr:
		if !v.IsNil() {
			return unsetFields(v.Elem(), path)
		}
	case reflect.Slice:
		if v.Len() > 0 {
			return unsetFields(v.Index(v.Len()-1), path)
		}
	}
	if v.IsZero() {
		return []string{path}
	}
	return nil
}

// TestEncodeYAMLCanonical pins the canonical text itself, not just its
// fixed-point property: the literal below was emitted by the hand-written
// field-by-field encoder this one replaced (PR 13's EncodeYAML), for a
// spec that sets every field of Spec, TopologySpec, Phase, Grid and
// Expect — so a new field must extend it — plus a string that needs
// quoting, floats that render with an exponent (1e-05, 2.5e+06) beside
// integers of the same magnitude that must not, and a phase with its
// optional fields omitted.
func TestEncodeYAMLCanonical(t *testing.T) {
	solved, maxPotential, tau := true, 3, 2
	spec := Spec{
		Version: 1, Name: "canonical", Description: `quoted: "yes" # not a comment`,
		Seed: 18446744073709551615, Algorithm: "sharedbit", N: 1000000, K: 8,
		Tau: 1, Epsilon: 0.125, TagBits: 2, MaxRounds: 2500000,
		Topology: client.TopologySpec{
			Kind: "levy", Degree: 3, P: 0.25, Rows: 4, Cols: 5, CliqueSize: 6, PathLen: 7,
			Radius: 1e-05, Attach: 8, Speed: 2.5e+06, Pause: 9, LevyAlpha: 1.6,
			Groups: 10, Attract: -0.5, Period: 11,
			Adversary: "cutrich", AdvBudget: 12, AdvParts: 13, AdvPeriod: 14,
		},
		Phases: []Phase{
			{Name: "first"},
			{Name: "2nd", Rounds: 5, Tau: &tau, Topology: &client.TopologySpec{
				Kind: "gnp", Degree: 3, P: 1e-07, Rows: 4, Cols: 5, CliqueSize: 6, PathLen: 7,
				Radius: 100, Attach: 8, Speed: 1e+21, Pause: 9, LevyAlpha: 1234567,
				Groups: 10, Attract: 1, Period: 11,
				Adversary: "true", AdvBudget: -12, AdvParts: 13, AdvPeriod: 14,
			}},
		},
		Grid: &Grid{N: []int{8, 16}, K: []int{2}, Trials: 3},
		Expect: &outcome.Expect{
			Solved: &solved, SolvedBy: 500, MinRounds: 10, MaxFinalPotential: &maxPotential,
			MinCoverage: 0.75, MaxChurnPerRound: 2.5e+06, MinTokensMoved: 1, MaxTokensMoved: 2500000,
		},
	}
	if unset := unsetFields(reflect.ValueOf(spec), "Spec"); len(unset) > 0 {
		t.Fatalf("the canonical spec leaves fields unset, so their rendering is unpinned: %v", unset)
	}
	const want = `version: 1
name: canonical
description: "quoted: \"yes\" # not a comment"
seed: 18446744073709551615
algorithm: sharedbit
n: 1000000
k: 8
tau: 1
epsilon: 0.125
tag_bits: 2
max_rounds: 2500000
topology:
  kind: levy
  degree: 3
  p: 0.25
  rows: 4
  cols: 5
  clique_size: 6
  path_len: 7
  radius: 1e-05
  attach: 8
  speed: 2.5e+06
  pause: 9
  levy_alpha: 1.6
  groups: 10
  attract: -0.5
  period: 11
  adversary: cutrich
  adv_budget: 12
  adv_parts: 13
  adv_period: 14
phases:
  - name: first
  - name: 2nd
    rounds: 5
    tau: 2
    topology:
      kind: gnp
      degree: 3
      p: 1e-07
      rows: 4
      cols: 5
      clique_size: 6
      path_len: 7
      radius: 100
      attach: 8
      speed: 1e+21
      pause: 9
      levy_alpha: 1.234567e+06
      groups: 10
      attract: 1
      period: 11
      adversary: "true"
      adv_budget: -12
      adv_parts: 13
      adv_period: 14
grid:
  n: [8, 16]
  k: [2]
  trials: 3
expect:
  solved: true
  solved_by: 500
  min_rounds: 10
  max_final_potential: 3
  min_coverage: 0.75
  max_churn_per_round: 2.5e+06
  min_tokens_moved: 1
  max_tokens_moved: 2500000
`
	if got := string(spec.EncodeYAML()); got != want {
		t.Errorf("canonical YAML changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
