// Package outcome defines the expected-outcome assertions a scenario
// spec can attach to a run (DESIGN.md §15) and evaluates them against a
// finished run's summary. It is deliberately a leaf package — plain data
// in, violations out. The scenario runner (internal/scenario) is its one
// caller and judges every run with it, local or remote, single or grid
// cell, so a scenario that passes locally cannot fail remotely on
// evaluation drift.
package outcome

import (
	"fmt"
	"strings"
)

// Expect declares the assertions to evaluate after a run. The JSON tags
// are the scenario spec's `expect:` field names. Zero values mean
// "unasserted" (Solved being a *bool keeps `solved: false` assertable).
type Expect struct {
	// Solved asserts the run's final solved state.
	Solved *bool `json:"solved,omitempty"`
	// SolvedBy asserts the run solved within this many rounds.
	SolvedBy int `json:"solved_by,omitempty"`
	// MinRounds asserts the run took at least this many rounds (a
	// too-fast run usually means the scenario is not testing what it
	// claims to).
	MinRounds int `json:"min_rounds,omitempty"`
	// MaxFinalPotential asserts φ at the end of the run is at or below
	// this threshold (pointer so `max_final_potential: 0` — full
	// dissemination — is expressible).
	MaxFinalPotential *int `json:"max_final_potential,omitempty"`
	// MinCoverage asserts the fraction of (node, token) pairs known at
	// the end, 1 − φ/(n·k), reached at least this value in [0, 1].
	MinCoverage float64 `json:"min_coverage,omitempty"`
	// MaxChurnPerRound bounds the mean edge churn the schedule generated:
	// (edges added + removed) / rounds.
	MaxChurnPerRound float64 `json:"max_churn_per_round,omitempty"`
	// MinTokensMoved / MaxTokensMoved bound the total token transfers —
	// the token-conservation invariant: a gossip run that solved must
	// have moved at least n·k − k tokens, and algorithms that re-send
	// known tokens bound it from above.
	MinTokensMoved int64 `json:"min_tokens_moved,omitempty"`
	MaxTokensMoved int64 `json:"max_tokens_moved,omitempty"`
}

// Empty reports whether no assertion is set.
func (e Expect) Empty() bool {
	return e.Solved == nil && e.SolvedBy == 0 && e.MinRounds == 0 &&
		e.MaxFinalPotential == nil && e.MinCoverage == 0 &&
		e.MaxChurnPerRound == 0 && e.MinTokensMoved == 0 && e.MaxTokensMoved == 0
}

// Count returns how many assertions are set (the "expect: ok (N checks)"
// line).
func (e Expect) Count() int {
	n := 0
	for _, set := range []bool{
		e.Solved != nil, e.SolvedBy != 0, e.MinRounds != 0,
		e.MaxFinalPotential != nil, e.MinCoverage != 0,
		e.MaxChurnPerRound != 0, e.MinTokensMoved != 0, e.MaxTokensMoved != 0,
	} {
		if set {
			n++
		}
	}
	return n
}

// Validate rejects assertions that can never hold or are out of range,
// with the spec field name in the error.
func (e Expect) Validate() error {
	if e.SolvedBy < 0 {
		return fmt.Errorf("expect.solved_by: %d is negative", e.SolvedBy)
	}
	if e.MinRounds < 0 {
		return fmt.Errorf("expect.min_rounds: %d is negative", e.MinRounds)
	}
	if e.SolvedBy > 0 && e.MinRounds > e.SolvedBy {
		return fmt.Errorf("expect.min_rounds %d exceeds expect.solved_by %d: no run can satisfy both", e.MinRounds, e.SolvedBy)
	}
	if e.MaxFinalPotential != nil && *e.MaxFinalPotential < 0 {
		return fmt.Errorf("expect.max_final_potential: %d is negative (φ is never below 0)", *e.MaxFinalPotential)
	}
	if e.MinCoverage < 0 || e.MinCoverage > 1 {
		return fmt.Errorf("expect.min_coverage: %v outside [0, 1]", e.MinCoverage)
	}
	if e.MaxChurnPerRound < 0 {
		return fmt.Errorf("expect.max_churn_per_round: %v is negative", e.MaxChurnPerRound)
	}
	if e.MinTokensMoved < 0 || e.MaxTokensMoved < 0 {
		return fmt.Errorf("expect.min_tokens_moved/max_tokens_moved must be non-negative")
	}
	if e.MaxTokensMoved > 0 && e.MinTokensMoved > e.MaxTokensMoved {
		return fmt.Errorf("expect.min_tokens_moved %d exceeds expect.max_tokens_moved %d", e.MinTokensMoved, e.MaxTokensMoved)
	}
	return nil
}

// Run is the finished run's summary, as plain data: the subset of
// mobilegossip.Result (plus n and k) the assertions read. The wire
// RunResult, local or remote, projects onto it losslessly.
type Run struct {
	N, K           int
	Solved         bool
	Rounds         int
	FinalPotential int
	TokensMoved    int64
	EdgesAdded     int64
	EdgesRemoved   int64
}

// Coverage returns the fraction of (node, token) pairs known at the end
// of the run: 1 − φ/(n·k).
func (r Run) Coverage() float64 {
	nk := float64(r.N) * float64(r.K)
	if nk <= 0 {
		return 0
	}
	return 1 - float64(r.FinalPotential)/nk
}

// ChurnPerRound returns the mean edge churn per executed round.
func (r Run) ChurnPerRound() float64 {
	if r.Rounds <= 0 {
		return 0
	}
	return float64(r.EdgesAdded+r.EdgesRemoved) / float64(r.Rounds)
}

// Violation is one failed assertion: the spec field that failed and a
// diff-style expected/got detail.
type Violation struct {
	Assertion string `json:"assertion"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string { return v.Assertion + ": " + v.Detail }

// FormatFailure renders an assertion failure — the scenario runner's
// *AssertionError text on either transport: the scenario, the seed, the
// phase the run ended in, and one diff-style line per violation.
func FormatFailure(scenario string, seed uint64, phase string, vs []Violation) string {
	var b strings.Builder
	noun := "assertions"
	if len(vs) == 1 {
		noun = "assertion"
	}
	fmt.Fprintf(&b, "scenario %q: %d %s failed (seed %d", scenario, len(vs), noun, seed)
	if phase != "" {
		fmt.Fprintf(&b, ", phase %q", phase)
	}
	b.WriteString("):")
	for _, v := range vs {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return b.String()
}

// Check evaluates every set assertion against the run and returns the
// violations, in declaration order (empty means all assertions hold).
func Check(e Expect, r Run) []Violation {
	var out []Violation
	fail := func(assertion, format string, args ...any) {
		out = append(out, Violation{Assertion: assertion, Detail: fmt.Sprintf(format, args...)})
	}
	if e.Solved != nil && r.Solved != *e.Solved {
		fail("solved", "expected solved=%v, got solved=%v after %d rounds (φ=%d)",
			*e.Solved, r.Solved, r.Rounds, r.FinalPotential)
	}
	if e.SolvedBy > 0 {
		switch {
		case !r.Solved:
			fail("solved_by", "expected solved within %d rounds, got unsolved after %d rounds (φ=%d)",
				e.SolvedBy, r.Rounds, r.FinalPotential)
		case r.Rounds > e.SolvedBy:
			fail("solved_by", "expected rounds ≤ %d, got %d", e.SolvedBy, r.Rounds)
		}
	}
	if e.MinRounds > 0 && r.Rounds < e.MinRounds {
		fail("min_rounds", "expected rounds ≥ %d, got %d", e.MinRounds, r.Rounds)
	}
	if e.MaxFinalPotential != nil && r.FinalPotential > *e.MaxFinalPotential {
		fail("max_final_potential", "expected final φ ≤ %d, got %d", *e.MaxFinalPotential, r.FinalPotential)
	}
	if e.MinCoverage > 0 {
		if cov := r.Coverage(); cov < e.MinCoverage {
			fail("min_coverage", "expected coverage ≥ %.4f, got %.4f (φ=%d of n·k=%d)",
				e.MinCoverage, cov, r.FinalPotential, r.N*r.K)
		}
	}
	if e.MaxChurnPerRound > 0 {
		if churn := r.ChurnPerRound(); churn > e.MaxChurnPerRound {
			fail("max_churn_per_round", "expected churn/round ≤ %.2f, got %.2f (+%d/-%d over %d rounds)",
				e.MaxChurnPerRound, churn, r.EdgesAdded, r.EdgesRemoved, r.Rounds)
		}
	}
	if e.MinTokensMoved > 0 && r.TokensMoved < e.MinTokensMoved {
		fail("min_tokens_moved", "expected tokens moved ≥ %d, got %d", e.MinTokensMoved, r.TokensMoved)
	}
	if e.MaxTokensMoved > 0 && r.TokensMoved > e.MaxTokensMoved {
		fail("max_tokens_moved", "expected tokens moved ≤ %d, got %d", e.MaxTokensMoved, r.TokensMoved)
	}
	return out
}
