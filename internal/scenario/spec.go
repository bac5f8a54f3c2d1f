// Package scenario implements the declarative scenario format
// (DESIGN.md §15): versioned YAML/JSON files describing a full
// simulation — seed, algorithm, topology, adversary, phased timelines,
// parameter grids, and expected-outcome assertions — that `gossipsim
// run` executes locally or against a gossipd daemon with byte-identical
// output, and that the golden-trace conformance suite pins in CI.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"mobilegossip"
	"mobilegossip/client"
	"mobilegossip/internal/outcome"
	"mobilegossip/internal/wire"
)

// Version is the spec format version this build reads and writes.
const Version = 1

// Spec is one scenario file, normalized. Field names (via the JSON tags)
// are the file format: the same tags parse JSON scenarios directly and
// YAML scenarios through the yamlToJSON translator. The topology block
// reuses the daemon wire shape (client.TopologySpec), so a scenario
// says "kind: waypoint" exactly like a create request does and the two
// vocabularies cannot drift.
type Spec struct {
	// Version must be 1 (readers reject other versions up front, so a
	// future format change cannot be silently misread).
	Version int `json:"version"`
	// Name identifies the scenario in output, goldens, and assertion
	// failures: lowercase letters, digits, hyphens.
	Name string `json:"name"`
	// Description is a one-line human summary, echoed in the run header.
	Description string `json:"description,omitempty"`
	// Seed fully determines the execution (0 is a valid seed; grids
	// split per-cell seeds from it via mobilegossip.SweepSeed).
	Seed uint64 `json:"seed"`
	// Algorithm is the protocol wire name (sharedbit, blindmatch, ...).
	Algorithm string `json:"algorithm"`
	// N and K are the network and token-set sizes (overridden per point
	// by a grid's n/k lists).
	N int `json:"n"`
	K int `json:"k"`
	// Tau is the stability factor (0 = static).
	Tau int `json:"tau,omitempty"`
	// Epsilon, in (0, 1), relaxes the objective to ε-gossip.
	Epsilon float64 `json:"epsilon,omitempty"`
	// TagBits ≥ 2 selects the multi-bit advertisement generalization.
	TagBits int `json:"tag_bits,omitempty"`
	// MaxRounds aborts unfinished runs (0 = engine default).
	MaxRounds int `json:"max_rounds,omitempty"`
	// Topology is the initial (or only) topology block.
	Topology client.TopologySpec `json:"topology"`
	// Phases, when present, split the run into an ordered timeline:
	// phase 1 starts at round 0 with the top-level topology/tau (it may
	// not override them — that would make the file say one thing twice),
	// and each later phase rebinds the topology schedule and/or tau at
	// its starting round boundary (Simulation.Rebind). Mutually
	// exclusive with Grid.
	Phases []Phase `json:"phases,omitempty"`
	// Grid expands the scenario into a deterministic sweep over the
	// n × k cross product, trials runs per point. Mutually exclusive
	// with Phases.
	Grid *Grid `json:"grid,omitempty"`
	// Expect holds the post-run assertions; for grids they are evaluated
	// against every run of every point.
	Expect *outcome.Expect `json:"expect,omitempty"`
}

// Phase is one segment of a phased timeline.
type Phase struct {
	// Name labels the phase in output and assertion failures.
	Name string `json:"name"`
	// Rounds is the phase's length. It must be ≥ 1 everywhere except the
	// last phase, where 0 means "run to completion".
	Rounds int `json:"rounds,omitempty"`
	// Tau, if set, replaces the stability factor from the phase start
	// (nil keeps the previous value).
	Tau *int `json:"tau,omitempty"`
	// Topology, if set, is rebound at the phase's starting round
	// boundary (nil keeps the previous phase's schedule).
	Topology *client.TopologySpec `json:"topology,omitempty"`
}

// Grid is the parameter-sweep block.
type Grid struct {
	// N and K are the axis values; an empty axis uses the top-level
	// value. Points are the cross product in n-major order.
	N []int `json:"n,omitempty"`
	K []int `json:"k,omitempty"`
	// Trials is the per-point repetition count (normalized to ≥ 1).
	Trials int `json:"trials"`
}

// Parse reads a scenario from YAML or JSON bytes, strict-decodes it
// (unknown fields are errors), normalizes defaults, and validates it.
func Parse(data []byte) (*Spec, error) {
	jsonBytes, err := yamlToJSON(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(jsonBytes))
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing content after the document")
	}
	spec.normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// ParseFile is Parse over a file.
func ParseFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// normalize fills the defaults that make emission canonical: after
// normalize, EncodeYAML∘Parse (encode_yaml_test.go) is the identity on the
// emitted bytes.
func (s *Spec) normalize() {
	if s.Grid != nil && s.Grid.Trials <= 0 {
		s.Grid.Trials = 1
	}
	if s.Expect != nil && s.Expect.Empty() {
		s.Expect = nil
	}
}

// Validate checks the spec's internal consistency, with errors that name
// the offending field.
func (s *Spec) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if s.Version != Version {
		if s.Version == 0 {
			return fmt.Errorf("scenario: missing required field \"version\" (this build reads version: %d)", Version)
		}
		return fmt.Errorf("scenario: unsupported version %d (this build reads version: %d)", s.Version, Version)
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: missing required field \"name\"")
	}
	for _, r := range s.Name {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return fail("name must be lowercase letters, digits, and hyphens, got %q", s.Name)
		}
	}
	alg, err := mobilegossip.ParseAlgorithm(s.Algorithm)
	if err != nil {
		if s.Algorithm == "" {
			return fail("missing required field \"algorithm\"")
		}
		return fail("algorithm: %v", err)
	}
	gridHasN := s.Grid != nil && len(s.Grid.N) > 0
	gridHasK := s.Grid != nil && len(s.Grid.K) > 0
	if !gridHasN && s.N < 2 {
		return fail("n must be at least 2, got %d", s.N)
	}
	if !gridHasK && s.K < 1 {
		return fail("k must be at least 1, got %d", s.K)
	}
	if !gridHasN && !gridHasK && s.K > s.N {
		return fail("k must be in [1, n=%d], got %d", s.N, s.K)
	}
	if s.Tau < 0 {
		return fail("tau must be >= 0 (0 = static), got %d", s.Tau)
	}
	if s.Epsilon < 0 || s.Epsilon >= 1 {
		return fail("epsilon must be in [0, 1), got %v", s.Epsilon)
	}
	if s.MaxRounds < 0 {
		return fail("max_rounds must be >= 0, got %d", s.MaxRounds)
	}
	if s.Topology.Kind == "" {
		return fail("missing required field \"topology.kind\"")
	}
	if _, err := wire.TopologyFromWire(s.Topology); err != nil {
		return fail("topology: %v", err)
	}
	if len(s.Phases) > 0 && s.Grid != nil {
		return fail("\"phases\" and \"grid\" are mutually exclusive (a sweep of phased runs is not supported)")
	}
	if alg == mobilegossip.AlgCrowdedBin && s.Tau > 0 {
		return fail("algorithm crowdedbin requires a static topology (tau: 0), got tau: %d", s.Tau)
	}
	if err := s.validatePhases(alg); err != nil {
		return err
	}
	if err := s.validateGrid(); err != nil {
		return err
	}
	if s.Expect != nil {
		if err := s.Expect.Validate(); err != nil {
			return fail("%v", err)
		}
	}
	return nil
}

func (s *Spec) validatePhases(alg mobilegossip.Algorithm) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if len(s.Phases) == 0 {
		return nil
	}
	if len(s.Phases) < 2 {
		return fail("a phased timeline needs at least 2 phases (drop the \"phases\" block for a single-phase run)")
	}
	if s.Phases[len(s.Phases)-1].Rounds > 0 && s.MaxRounds != 0 {
		return fail("max_rounds conflicts with a fully fixed-length timeline (the phases already end the run at round %d); give the last phase rounds: 0 to run to completion under max_rounds", s.totalPhaseRounds())
	}
	seen := map[string]bool{}
	for i, ph := range s.Phases {
		where := fmt.Sprintf("phases[%d]", i)
		if ph.Name != "" {
			where = fmt.Sprintf("phase %q", ph.Name)
		}
		if ph.Name == "" {
			return fail("%s: missing required field \"name\"", where)
		}
		if seen[ph.Name] {
			return fail("duplicate phase name %q", ph.Name)
		}
		seen[ph.Name] = true
		last := i == len(s.Phases)-1
		if ph.Rounds < 0 {
			return fail("%s: rounds must be >= 0, got %d", where, ph.Rounds)
		}
		if ph.Rounds == 0 && !last {
			return fail("%s: rounds: 0 (run to completion) is only valid on the last phase", where)
		}
		if i == 0 && (ph.Topology != nil || ph.Tau != nil) {
			return fail("%s starts the run: set its topology/tau at the top level, not in the phase", where)
		}
		if ph.Topology != nil {
			if ph.Topology.Kind == "" {
				return fail("%s: missing required field \"topology.kind\"", where)
			}
			if _, err := wire.TopologyFromWire(*ph.Topology); err != nil {
				return fail("%s: topology: %v", where, err)
			}
		}
		tau := s.Tau
		if ph.Tau != nil {
			tau = *ph.Tau
			if tau < 0 {
				return fail("%s: tau must be >= 0, got %d", where, tau)
			}
		}
		if alg == mobilegossip.AlgCrowdedBin && tau > 0 {
			return fail("%s: algorithm crowdedbin requires a static topology (tau: 0)", where)
		}
	}
	return nil
}

func (s *Spec) validateGrid() error {
	if s.Grid == nil {
		return nil
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	for _, n := range s.Grid.N {
		if n < 2 {
			return fail("grid.n: every value must be at least 2, got %d", n)
		}
	}
	for _, k := range s.Grid.K {
		if k < 1 {
			return fail("grid.k: every value must be at least 1, got %d", k)
		}
	}
	for _, p := range s.points() {
		if p.k > p.n {
			return fail("grid point (n=%d, k=%d): k exceeds n", p.n, p.k)
		}
	}
	return nil
}

// gridPoint is one (n, k) cell of the expanded grid.
type gridPoint struct{ n, k int }

// points expands the grid (or the single top-level point) in n-major
// order — the deterministic sweep order the output table follows.
func (s *Spec) points() []gridPoint {
	ns, ks := []int{s.N}, []int{s.K}
	if s.Grid != nil {
		if len(s.Grid.N) > 0 {
			ns = s.Grid.N
		}
		if len(s.Grid.K) > 0 {
			ks = s.Grid.K
		}
	}
	var pts []gridPoint
	for _, n := range ns {
		for _, k := range ks {
			pts = append(pts, gridPoint{n: n, k: k})
		}
	}
	return pts
}

// totalPhaseRounds sums the phase lengths (meaningful only when the last
// phase is fixed-length).
func (s *Spec) totalPhaseRounds() int {
	total := 0
	for _, ph := range s.Phases {
		total += ph.Rounds
	}
	return total
}

// effectiveMaxRounds is the round budget the engine actually gets: a
// fully fixed-length timeline ends the run at its total (so both the
// local engine and the daemon emit session_end there and the event
// streams agree); otherwise the spec's max_rounds applies.
func (s *Spec) effectiveMaxRounds() int {
	if len(s.Phases) > 0 && s.Phases[len(s.Phases)-1].Rounds > 0 {
		return s.totalPhaseRounds()
	}
	return s.MaxRounds
}

// phaseStarts returns each phase's starting round (phase 0 starts at 0).
func (s *Spec) phaseStarts() []int {
	starts := make([]int, len(s.Phases))
	r := 0
	for i, ph := range s.Phases {
		starts[i] = r
		r += ph.Rounds
	}
	return starts
}

// phaseAt names the phase containing round r (1-based, as in Result),
// empty for unphased scenarios.
func (s *Spec) phaseAt(r int) string {
	if len(s.Phases) == 0 {
		return ""
	}
	starts := s.phaseStarts()
	name := s.Phases[0].Name
	for i := 1; i < len(s.Phases); i++ {
		if r > starts[i] {
			name = s.Phases[i].Name
		}
	}
	return name
}

// CreateRequest assembles the create request for a run at the given grid
// point and seed.
func (s *Spec) CreateRequest(n, k int, seed uint64, recordEvents bool) client.CreateRequest {
	return client.CreateRequest{
		Algorithm: s.Algorithm, N: n, K: k, Topology: s.Topology,
		Tau: s.Tau, Epsilon: s.Epsilon, TagBits: s.TagBits,
		Seed: seed, MaxRounds: s.effectiveMaxRounds(), RecordEvents: recordEvents,
	}
}

// timeline lowers the phase list to what the driver walks: each later
// phase's start round with its effective topology and tau (the last
// explicit block at or before it, falling back to the top level).
func (s *Spec) timeline() Timeline {
	tl := Timeline{Scenario: s.Name}
	rebind := client.RebindRequest{Topology: s.Topology, Tau: s.Tau}
	for i, start := range s.phaseStarts() {
		if i == 0 {
			continue
		}
		ph := s.Phases[i]
		if ph.Topology != nil {
			rebind.Topology = *ph.Topology
		}
		if ph.Tau != nil {
			rebind.Tau = *ph.Tau
		}
		tl.Phases = append(tl.Phases, PhaseStart{Name: ph.Name, Round: start, Rebind: rebind})
	}
	if n := len(s.Phases); n > 0 && s.Phases[n-1].Rounds > 0 {
		tl.End = s.totalPhaseRounds()
	}
	return tl
}
