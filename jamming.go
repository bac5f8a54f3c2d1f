package mobilegossip

import (
	"fmt"
	"strings"

	"mobilegossip/internal/adversary"
)

// AdversaryKind enumerates the built-in adversarial topology strategies
// (internal/adversary). An adversary is layered *over* a base Topology of
// any Kind — static families, τ-dynamic regeneration, or the mobility
// models — and perturbs each epoch's edge list under the strategy, within
// the optional Topology.AdvBudget, with connectivity repaired by relay
// bridges. AdvNone (the zero value) disables it.
type AdversaryKind int

// The adversarial strategies. The first two are oblivious (precomputed
// worst-case schedules), the next two adaptive (they read the algorithm's
// live token state), the rest catastrophic events.
const (
	AdvNone AdversaryKind = iota
	// AdvBipartition alternates two fixed vertex cuts, suppressing every
	// crossing edge: the network decomposes into two halves joined by one
	// bottleneck bridge, and the active cut flips each epoch.
	AdvBipartition
	// AdvBridges shatters the vertices into AdvParts rotating groups and
	// suppresses every inter-group edge — dense islands, single bridges.
	AdvBridges
	// AdvCutRich severs edges of the token-richest nodes first, spending
	// the per-epoch AdvBudget where the algorithm stores its progress.
	AdvCutRich
	// AdvIsolate surgically cuts the current token-leader and its
	// neighborhood out of the topology each epoch.
	AdvIsolate
	// AdvBlackout darkens one of AdvParts regions for the first half of
	// every AdvPeriod-epoch cycle, then moves on.
	AdvBlackout
	// AdvPartition alternates near-partition (one bridge between two
	// islands) and fully healed phases on an AdvPeriod cycle.
	AdvPartition
	// AdvTopK isolates the AdvParts highest-degree nodes of the base
	// topology every epoch — a targeted attack on Δ.
	AdvTopK
)

var advNames = map[AdversaryKind]string{
	AdvNone: "none", AdvBipartition: "bipartition", AdvBridges: "bridges",
	AdvCutRich: "cutrich", AdvIsolate: "isolate", AdvBlackout: "blackout",
	AdvPartition: "partition", AdvTopK: "topk",
}

// AdversaryKinds enumerates every adversarial strategy (excluding AdvNone),
// in declaration order — the single source of truth for CLIs and error
// messages.
func AdversaryKinds() []AdversaryKind {
	return []AdversaryKind{
		AdvBipartition, AdvBridges, AdvCutRich, AdvIsolate,
		AdvBlackout, AdvPartition, AdvTopK,
	}
}

// AdversaryKindNames returns the parseable names of AdversaryKinds, in
// order, with "none" first.
func AdversaryKindNames() []string {
	names := make([]string, 0, len(advNames))
	names = append(names, advNames[AdvNone])
	for _, k := range AdversaryKinds() {
		names = append(names, k.String())
	}
	return names
}

// String returns the strategy name.
func (k AdversaryKind) String() string {
	if s, ok := advNames[k]; ok {
		return s
	}
	return fmt.Sprintf("AdversaryKind(%d)", int(k))
}

// ParseAdversaryKind resolves a strategy name (as printed by String).
// "none" and "" parse to AdvNone.
func ParseAdversaryKind(s string) (AdversaryKind, error) {
	if s == "" {
		return AdvNone, nil
	}
	//det: names are distinct, so at most one entry matches.
	for k, name := range advNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("mobilegossip: unknown adversary %q (valid: %s)",
		s, strings.Join(AdversaryKindNames(), ", "))
}

// strategy instantiates the internal/adversary strategy for the kind,
// applying the documented AdvParts/AdvPeriod defaults.
func (t Topology) strategy() (adversary.Strategy, error) {
	parts := t.AdvParts
	period := t.AdvPeriod
	if period <= 0 {
		period = 8
	}
	switch t.Adversary {
	case AdvBipartition:
		return adversary.Bipartition(), nil
	case AdvBridges:
		if parts <= 0 {
			parts = 4
		}
		return adversary.Bridges(parts), nil
	case AdvCutRich:
		return adversary.CutRich(), nil
	case AdvIsolate:
		return adversary.Isolate(), nil
	case AdvBlackout:
		if parts <= 0 {
			parts = 4
		}
		return adversary.Blackout(parts, period), nil
	case AdvPartition:
		return adversary.Partition(period), nil
	case AdvTopK:
		if parts <= 0 {
			parts = 3
		}
		return adversary.TopK(parts), nil
	default:
		return nil, fmt.Errorf("mobilegossip: unknown adversary kind %v", t.Adversary)
	}
}
