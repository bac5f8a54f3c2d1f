package harness

// Adversary experiments E25–E27: the §2 adversary made concrete. The paper
// analyzes gossip against a topology controlled by an adversary; PRs 1–4
// only exercised benign schedules (regeneration, physical motion). These
// experiments sweep internal/adversary's strategy catalogue — oblivious
// worst-case schedules, adaptive state-reading cutters under an edge
// budget, catastrophic events — and report the churn the adversary actually
// inflicted next to the gossip cost it caused. See DESIGN.md §10.

import (
	"fmt"

	"mobilegossip"
	"mobilegossip/internal/stats"
)

func init() {
	register(Experiment{ID: "E25", Title: "Gossip vs adversary strategy (oblivious & catastrophic)", Exhibit: "§2 adversarial dynamic graphs; Fig.1 bounds under worst-case schedules", Run: runE25})
	register(Experiment{ID: "E26", Title: "Gossip vs adaptive adversary budget", Exhibit: "§2 adversary strength as a resource; 1/α degradation per cut edge", Run: runE26})
	register(Experiment{ID: "E27", Title: "Adversary over mobility (composed schedules)", Exhibit: "§1 scenarios under jamming; motion vs adversary interaction", Run: runE27})
}

// advTopo is the E25/E26 base: a τ-dynamic 4-regular crowd the adversary
// perturbs each round.
func advTopo(adv mobilegossip.AdversaryKind, budget int) mobilegossip.Topology {
	return mobilegossip.Topology{
		Kind: mobilegossip.RandomRegular, Degree: 4,
		Adversary: adv, AdvBudget: budget, AdvPeriod: 4,
	}
}

// runE25: every strategy against every dynamic-capable algorithm on the
// same base topology, unlimited budget — the worst case each strategy can
// manufacture. SharedBit's O(kn) bound is topology-oblivious and should
// degrade the least; BlindMatch pays its blind dials against every
// bottleneck; SimSharedBit's leader election suffers exactly where the
// adversary concentrates the cuts.
func runE25(o Options) (*Table, error) {
	n, k := 48, 6
	if o.Quick {
		n, k = 32, 4
	}
	advs := append([]mobilegossip.AdversaryKind{mobilegossip.AdvNone},
		mobilegossip.AdversaryKinds()...)
	algs := []mobilegossip.Algorithm{
		mobilegossip.AlgBlindMatch, mobilegossip.AlgSharedBit, mobilegossip.AlgSimSharedBit,
	}
	t := &Table{
		ID: "E25",
		Caption: fmt.Sprintf(
			"Gossip under adversarial topologies (n=%d, k=%d, τ=1, 4-regular base): rounds vs strategy", n, k),
		Columns: []string{"adversary", "churn/round", "blindmatch (b=0)", "sharedbit (b=1)", "simsharedbit"},
	}
	var cfgs []mobilegossip.Config
	for _, adv := range advs {
		for _, alg := range algs {
			cfgs = append(cfgs, mobilegossip.Config{
				Algorithm: alg, N: n, K: k, Topology: advTopo(adv, 0), Tau: 1,
			})
		}
	}
	ms, err := meanStatsGrid(o, cfgs)
	if err != nil {
		return nil, err
	}
	var benign, worst float64
	worstName := ""
	for i, adv := range advs {
		row := ms[3*i : 3*i+3]
		// The adversary rows' runs meter churn through DeltaFor; the benign
		// Regen base is not delta-capable and would report 0, so measure it
		// by generic graph diffing over the same window — every row then
		// means the same thing (total topology change, base rewiring
		// included).
		churn := fmtF(row[1].churnPerRoundMean())
		if adv == mobilegossip.AdvNone {
			c, err := churnFor(advTopo(adv, 0), n, 1, 48, o)
			if err != nil {
				return nil, err
			}
			churn = fmtF(churnPerRound(c))
		}
		t.Rows = append(t.Rows, []string{
			adv.String(), churn,
			fmtF(row[0].Rounds), fmtF(row[1].Rounds), fmtF(row[2].Rounds),
		})
		if adv == mobilegossip.AdvNone {
			benign = row[1].Rounds
		} else if row[1].Rounds > worst {
			worst, worstName = row[1].Rounds, adv.String()
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("the harshest strategy (%s) slows sharedbit %.2fx over the benign τ=1 base — "+
			"but its O(kn) bound holds under every schedule, exactly the paper's claim "+
			"(the analysis never leans on which edges survive)", worstName, stats.Ratio(benign, worst)),
		"churn/round is total topology change, the τ=1 base rewiring included — the damage is "+
			"in *which* edges go, not how many: unlimited cutrich churns nothing (it freezes the "+
			"topology into the relay chain) yet costs the most rounds",
		"blindmatch (b=0) degrades hardest on the bottleneck strategies: every productive "+
			"connection must cross a repaired bridge found by blind dialing")
	return t, nil
}

// runE26: the adaptive strategies as a function of their per-epoch edge
// budget — the adversary's strength as a resource. Budget 0 cuts nothing
// here (expressed as the none row); ∞ is the unlimited extreme.
func runE26(o Options) (*Table, error) {
	n, k := 48, 6
	if o.Quick {
		n, k = 32, 4
	}
	budgets := []int{2, 8, 24, 0} // 0 = unlimited, rendered ∞
	t := &Table{
		ID: "E26",
		Caption: fmt.Sprintf(
			"Adaptive adversaries (n=%d, k=%d, τ=1, 4-regular base): rounds vs per-epoch cut budget", n, k),
		Columns: []string{"budget", "cutrich churn/rd", "cutrich sharedbit", "cutrich simsharedbit", "isolate sharedbit"},
	}
	var cfgs []mobilegossip.Config
	baseline := mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: n, K: k, Topology: advTopo(mobilegossip.AdvNone, 0), Tau: 1,
	}
	cfgs = append(cfgs, baseline)
	for _, b := range budgets {
		cfgs = append(cfgs,
			mobilegossip.Config{Algorithm: mobilegossip.AlgSharedBit, N: n, K: k,
				Topology: advTopo(mobilegossip.AdvCutRich, b), Tau: 1},
			mobilegossip.Config{Algorithm: mobilegossip.AlgSimSharedBit, N: n, K: k,
				Topology: advTopo(mobilegossip.AdvCutRich, b), Tau: 1},
			mobilegossip.Config{Algorithm: mobilegossip.AlgSharedBit, N: n, K: k,
				Topology: advTopo(mobilegossip.AdvIsolate, b), Tau: 1},
		)
	}
	ms, err := meanStatsGrid(o, cfgs)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"0 (none)", "-", fmtF(ms[0].Rounds), "-", fmtF(ms[0].Rounds)})
	for i, b := range budgets {
		row := ms[1+3*i : 1+3*i+3]
		label := fmtF(float64(b))
		if b == 0 {
			label = "∞"
		}
		t.Rows = append(t.Rows, []string{
			label, fmtF(row[0].churnPerRoundMean()),
			fmtF(row[0].Rounds), fmtF(row[1].Rounds), fmtF(row[2].Rounds),
		})
	}
	last := ms[1+3*(len(budgets)-1)]
	t.Notes = append(t.Notes,
		fmt.Sprintf("adversary strength is roughly monotone in budget: unlimited cutrich costs "+
			"sharedbit %.2fx the benign base, and every cut must be re-paid each epoch as "+
			"churn (the budget meters destruction, repair bridges come back for free)",
			stats.Ratio(ms[0].Rounds, last.Rounds)),
		"targeting alone is not enough: isolate's surgical strike on one leader neighborhood "+
			"barely registers against sharedbit — with k tokens replicated everywhere there is "+
			"no single node worth starving, and spreading the budget (cutrich) hurts far more")
	return t, nil
}

// runE27: adversaries composed over physical motion — the strategy perturbs
// the moving crowd's proximity edge list through the same edge-list pipeline.
// Motion mixes neighborhoods (E22's finding) while the adversary re-cuts
// what motion heals; the composition shows whether walking outruns jamming.
func runE27(o Options) (*Table, error) {
	n, k := 72, 6
	if o.Quick {
		n, k = 40, 4
	}
	budget := n / 4
	advs := []mobilegossip.AdversaryKind{
		mobilegossip.AdvNone, mobilegossip.AdvBlackout,
		mobilegossip.AdvCutRich, mobilegossip.AdvPartition,
	}
	t := &Table{
		ID: "E27",
		Caption: fmt.Sprintf(
			"Adversary over random-waypoint motion (n=%d, k=%d, τ=1, budget %d): rounds vs strategy", n, k, budget),
		Columns: []string{"adversary", "churn/round", "sharedbit", "simsharedbit"},
	}
	topoFor := func(adv mobilegossip.AdversaryKind) mobilegossip.Topology {
		return mobilegossip.Topology{
			Kind: mobilegossip.MobileWaypoint, Speed: 0.02,
			Adversary: adv, AdvBudget: budget, AdvPeriod: 4,
		}
	}
	var cfgs []mobilegossip.Config
	for _, adv := range advs {
		for _, alg := range []mobilegossip.Algorithm{mobilegossip.AlgSharedBit, mobilegossip.AlgSimSharedBit} {
			cfgs = append(cfgs, mobilegossip.Config{
				Algorithm: alg, N: n, K: k, Topology: topoFor(adv), Tau: 1,
			})
		}
	}
	ms, err := meanStatsGrid(o, cfgs)
	if err != nil {
		return nil, err
	}
	var benign, worst float64
	for i, adv := range advs {
		row := ms[2*i : 2*i+2]
		t.Rows = append(t.Rows, []string{
			adv.String(), fmtF(row[0].churnPerRoundMean()),
			fmtF(row[0].Rounds), fmtF(row[1].Rounds),
		})
		if adv == mobilegossip.AdvNone {
			benign = row[0].Rounds
		} else if row[0].Rounds > worst {
			worst = row[0].Rounds
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("motion blunts the adversary: against a walking crowd the worst composed "+
			"strategy costs sharedbit %.2fx the unjammed walk — each epoch's cuts are "+
			"partially healed by the next epoch's motion before the adversary re-reads the "+
			"state (E22's mixing, now working against the attacker)", stats.Ratio(benign, worst)),
		"the adversary's cuts ride the same pipeline as the motion: one sorted effective "+
			"edge list per epoch carries both perturbations into one graph.Patcher.Load")
	return t, nil
}
