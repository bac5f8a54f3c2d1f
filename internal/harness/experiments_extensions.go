package harness

// Extension experiments beyond the paper's exhibits: ablations of design
// choices the paper discusses in prose (tag length beyond one bit, the
// value of stability, gradual churn between the paper's two extremes). See
// DESIGN.md §3. E17, an engine-worker ablation, was retired with the
// parallel engine; its id is not reused.

import (
	"fmt"
	"math"

	"mobilegossip"
	"mobilegossip/internal/core"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
	"mobilegossip/internal/runner"
	"mobilegossip/internal/stats"
)

func init() {
	register(Experiment{ID: "E15", Title: "Tag-length ablation: b = 0,1,2,4,8", Exhibit: "§1 remark: b>1 buys at most log factors", Run: runE15})
	register(Experiment{ID: "E16", Title: "Stability sweep: SimSharedBit vs τ on the double-star", Exhibit: "Thm 5.6 Δ^{1/τ} term", Run: runE16})
	register(Experiment{ID: "E18", Title: "Gradual churn sweep: SharedBit vs rewire fraction", Exhibit: "§2 dynamic graphs between τ=∞ and adversarial τ=1", Run: runE18})
}

// runE15: sweeping the tag length b on one fixed workload. The paper's §1
// remark predicts a large jump from b = 0 to b = 1 and at most logarithmic
// gains beyond: with b bits, differing sets produce differing tags with
// probability 1 − 2^{−b}, so the per-round progress constant saturates
// geometrically.
func runE15(o Options) (*Table, error) {
	n, k := 64, 8
	if o.Quick {
		n = 32
	}
	t := &Table{
		ID: "E15",
		Caption: fmt.Sprintf(
			"Tag-length ablation (n=%d, k=%d, τ=1 rotating 4-regular): rounds vs b", n, k),
		Columns: []string{"b", "algorithm", "rounds"},
	}
	topo := mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4}
	bs := []int{1, 2, 4, 8}
	cfgs := []mobilegossip.Config{{
		Algorithm: mobilegossip.AlgBlindMatch, N: n, K: k, Topology: topo, Tau: 1,
	}}
	for _, b := range bs {
		cfgs = append(cfgs, mobilegossip.Config{
			Algorithm: mobilegossip.AlgSharedBit, N: n, K: k, Topology: topo, Tau: 1,
			TagBits: b,
		})
	}
	pts, err := sweep(o, cfgs)
	if err != nil {
		return nil, err
	}
	r0 := pts[0].MeanRounds
	t.Rows = append(t.Rows, []string{"0", "blindmatch", fmtF(r0)})

	var r1 float64
	var rLast float64
	for i, b := range bs {
		r := pts[1+i].MeanRounds
		name := "sharedbit"
		if b > 1 {
			name = fmt.Sprintf("multibit(b=%d)", b)
		}
		t.Rows = append(t.Rows, []string{fmtF(float64(b)), name, fmtF(r)})
		if b == 1 {
			r1 = r
		}
		rLast = r
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"b=0 → b=1 speedup: %.2fx; b=1 → b=8 speedup: %.2fx — the first bit carries almost all "+
			"the value (paper §1: beyond b=1 at most logarithmic factors)",
		stats.Ratio(r1, r0), stats.Ratio(rLast, r1)))
	return t, nil
}

// runE16: SimSharedBit's additive overhead is Õ((1/α)·Δ^{1/τ}); on the
// rotating double-star (Δ = n/2, worst-case α) the Δ^{1/τ} factor decays
// geometrically as τ grows, so total rounds should fall sharply from τ = 1
// and then flatten.
func runE16(o Options) (*Table, error) {
	n, k := 64, 2
	if o.Quick {
		n = 32
	}
	taus := []int{1, 2, 4, 8}
	t := &Table{
		ID: "E16",
		Caption: fmt.Sprintf(
			"SimSharedBit on the rotating double-star (n=%d, k=%d): rounds vs stability τ", n, k),
		Columns: []string{"τ", "Δ^{1/τ}", "rounds"},
	}
	cfgs := make([]mobilegossip.Config, len(taus))
	for i, tau := range taus {
		cfgs[i] = mobilegossip.Config{
			Algorithm: mobilegossip.AlgSimSharedBit, N: n, K: k,
			Topology: mobilegossip.Topology{Kind: mobilegossip.DoubleStar}, Tau: tau,
		}
	}
	pts, err := sweep(o, cfgs)
	if err != nil {
		return nil, err
	}
	var first, last float64
	for i, tau := range taus {
		r := pts[i].MeanRounds
		delta := float64(n / 2)
		t.Rows = append(t.Rows, []string{
			fmtF(float64(tau)), fmtF(math.Pow(delta, 1/float64(tau))), fmtF(r),
		})
		if i == 0 {
			first = r
		}
		last = r
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"the leader-election overhead drops from τ=1 (Δ^{1/τ}=%d) and flattens once Δ^{1/τ} "+
			"nears 1 — total τ=1/τ=%d ratio %.2fx, with the residual rounds dominated by the "+
			"τ-independent O(kn) gossip term (Thm 5.6)",
		n/2, taus[len(taus)-1], stats.Ratio(last, first)))
	return t, nil
}

// runE18: between the paper's extremes — static (τ=∞) and adversarial
// full re-wiring every round — lies gradual churn. SharedBit's O(kn)
// bound is churn-independent (it never relies on edge persistence), so
// its measured rounds should vary only mildly with the rewire fraction.
func runE18(o Options) (*Table, error) {
	n, k := 64, 8
	if o.Quick {
		n = 48
	}
	t := &Table{
		ID: "E18",
		Caption: fmt.Sprintf(
			"SharedBit under gradual churn (n=%d, k=%d, ring backbone + n chords, τ=1): rounds vs rewire fraction", n, k),
		Columns: []string{"rewire", "rounds"},
	}
	rewires := []float64{0, 0.1, 0.5, 1.0}
	grid, err := runner.MapGrid(runner.Config{Seed: o.Seed}, len(rewires), trials(o),
		func(p, _ int, seed uint64) (float64, error) {
			rw := rewires[p]
			dyn, err := dyngraph.GradualChurn(n, 1, 4096, rw, seed)
			if err != nil {
				return 0, err
			}
			st, err := core.NewState(n, core.OneTokenPerNode(n, k), 1e-9)
			if err != nil {
				return 0, err
			}
			proto, err := core.NewSharedBit(st, prand.NewSharedString(prand.Mix64(seed^0x94d0_49bb_1331_11eb)), 1)
			if err != nil {
				return 0, err
			}
			res, err := mtm.NewEngine(dyn, proto, mtm.Config{Seed: prand.Mix64(seed)}).Run()
			if err != nil {
				return 0, err
			}
			if !res.Completed {
				return 0, fmt.Errorf("harness: E18 unsolved at rewire=%.2f", rw)
			}
			return float64(res.Rounds), nil
		})
	if err != nil {
		return nil, err
	}
	var lo, hi float64
	for p, rw := range rewires {
		m := stats.Summarize(grid[p]).Mean
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.2f", rw), fmtF(m)})
		if lo == 0 || m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"rounds vary only %.2fx across the whole churn range — SharedBit's O(kn) analysis "+
			"never relies on edge persistence, so churn rate barely matters (contrast E16, "+
			"where SimSharedBit's leader-election term is churn-sensitive)",
		stats.Ratio(lo, hi)))
	return t, nil
}
