package mobilegossip_test

// Conformance tests for the dyngraph.DeltaDynamic contract across every
// dynamic-schedule implementation the Topology layer can build — τ-dynamic
// regeneration (no delta support: the generic diff path), the four mobility
// models, and every adversary strategy (over static and mobility bases):
//
//   - DeltaFor(r) must equal the generic edge diff of At(r-1) vs At(r),
//     count for count;
//   - MeasureChurn on a fresh instance must agree with churn accumulated
//     from those diffs;
//   - every round's topology must be connected (§2's standing requirement).

import (
	"fmt"
	"testing"

	"mobilegossip"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
)

// conformanceSchedules enumerates the Topology configurations under test.
func conformanceSchedules() []mobilegossip.Topology {
	schedules := []mobilegossip.Topology{
		{Kind: mobilegossip.RandomRegular, Degree: 4}, // τ-dynamic Regen (non-delta)
		{Kind: mobilegossip.Cycle},                    // deterministic family + per-epoch permutation
		{Kind: mobilegossip.MobileWaypoint, Speed: 0.04},
		{Kind: mobilegossip.MobileLevy, Speed: 0.04},
		{Kind: mobilegossip.MobileGroup, Speed: 0.04, Attract: 0.8},
		{Kind: mobilegossip.MobileCommuter, Speed: 0.04, Period: 8},
	}
	for _, adv := range mobilegossip.AdversaryKinds() {
		schedules = append(schedules,
			mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4,
				Adversary: adv, AdvBudget: 10, AdvPeriod: 4},
			mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Speed: 0.04,
				Adversary: adv, AdvBudget: 10, AdvPeriod: 4},
		)
	}
	return schedules
}

func topoLabel(t mobilegossip.Topology) string {
	label := t.Kind.String()
	if t.Adversary != mobilegossip.AdvNone {
		label += "+" + t.Adversary.String()
	}
	return label
}

func TestDeltaDynamicConformance(t *testing.T) {
	const n, tau, rounds = 48, 2, 33
	for _, topo := range conformanceSchedules() {
		topo := topo
		t.Run(topoLabel(topo), func(t *testing.T) {
			dyn, err := topo.Build(n, tau, 77)
			if err != nil {
				t.Fatal(err)
			}
			dd, hasDelta := dyn.(dyngraph.DeltaDynamic)

			measured := dyngraph.Churn{Rounds: rounds, EffectiveTau: dyngraph.Infinite}
			g1 := dyn.At(1)
			if !g1.Connected() {
				t.Fatal("round 1 disconnected")
			}
			measured.MinEdges, measured.MaxEdges = g1.NumEdges(), g1.NumEdges()
			prev := g1.AppendPackedEdges(nil)
			lastChange := 0
			for r := 2; r <= rounds; r++ {
				g := dyn.At(r)
				if !g.Connected() {
					t.Fatalf("round %d disconnected", r)
				}
				cur := g.AppendPackedEdges(nil)
				wantAdd, wantRem := graph.DiffPacked(prev, cur)
				if hasDelta {
					if d := dd.DeltaFor(r); d.Added != wantAdd || d.Removed != wantRem {
						t.Fatalf("round %d: DeltaFor (+%d,-%d) vs graph diff (+%d,-%d)",
							r, d.Added, d.Removed, wantAdd, wantRem)
					}
				}
				if wantAdd > 0 || wantRem > 0 {
					measured.Changes++
					measured.Added += int64(wantAdd)
					measured.Removed += int64(wantRem)
					if lastChange > 0 && r-lastChange < measured.EffectiveTau {
						measured.EffectiveTau = r - lastChange
					}
					lastChange = r
				}
				if m := g.NumEdges(); m < measured.MinEdges {
					measured.MinEdges = m
				} else if m > measured.MaxEdges {
					measured.MaxEdges = m
				}
				prev = cur
			}

			// MeasureChurn on a throwaway instance agrees with the manual
			// replay (same seed → same schedule, delta path or diff path).
			fresh, err := topo.Build(n, tau, 77)
			if err != nil {
				t.Fatal(err)
			}
			if got := dyngraph.MeasureChurn(fresh, rounds); got != measured {
				t.Fatalf("MeasureChurn = %+v, manual replay = %+v", got, measured)
			}

			// The schedule honors its stability factor: changes never arrive
			// faster than every τ rounds.
			if measured.EffectiveTau != dyngraph.Infinite && measured.EffectiveTau < tau {
				t.Fatalf("effective τ %d beats the promised τ %d", measured.EffectiveTau, tau)
			}
		})
	}
}

// TestAdversaryKindEnumerators pins the AdversaryKind parse surface the
// same way TestEnumerators pins algorithms and topology kinds.
func TestAdversaryKindEnumerators(t *testing.T) {
	for _, k := range mobilegossip.AdversaryKinds() {
		got, err := mobilegossip.ParseAdversaryKind(k.String())
		if err != nil || got != k {
			t.Errorf("adversary %v does not round-trip: %v %v", k, got, err)
		}
	}
	if got, err := mobilegossip.ParseAdversaryKind("none"); err != nil || got != mobilegossip.AdvNone {
		t.Errorf(`ParseAdversaryKind("none") = %v, %v`, got, err)
	}
	if got, err := mobilegossip.ParseAdversaryKind(""); err != nil || got != mobilegossip.AdvNone {
		t.Errorf(`ParseAdversaryKind("") = %v, %v`, got, err)
	}
	if _, err := mobilegossip.ParseAdversaryKind("nope"); err == nil {
		t.Error("unknown adversary name parsed")
	}
	// A negative budget must be rejected, not read as unlimited.
	bad := mobilegossip.Topology{Kind: mobilegossip.Cycle,
		Adversary: mobilegossip.AdvCutRich, AdvBudget: -1}
	if _, err := bad.Build(16, 1, 1); err == nil {
		t.Error("negative AdvBudget built a schedule")
	}
	if names := mobilegossip.AdversaryKindNames(); names[0] != "none" || len(names) != 8 {
		t.Errorf("AdversaryKindNames() = %v", names)
	}
	var unknown mobilegossip.AdversaryKind = 99
	if s := unknown.String(); s != fmt.Sprintf("AdversaryKind(%d)", 99) {
		t.Errorf("unknown kind String() = %q", s)
	}
}
