package mtm_test

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"mobilegossip"
	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
)

// stepped is what every Stepper-backed schedule offers: a mobility
// Schedule, or an adversary Engine over one.
type stepped interface {
	dyngraph.DeltaDynamic
	dyngraph.Checkpointer
	dyngraph.Stager
	Edges() []uint64
	Epoch() int
}

// countStages forwards a schedule and counts the stages the engine runs on
// it — from a helper, hence the atomic.
type countStages struct {
	stepped
	n *atomic.Int32
}

func (c countStages) Stage(r int) []uint64 {
	c.n.Add(1)
	return c.stepped.Stage(r)
}

// coinProposer proposes to a uniformly random neighbour with probability ½
// and charges a bit per connection: stateless, so every round forms
// connections at any node count and the engine's helpers get started.
type coinProposer struct{}

func (coinProposer) TagBits() int                { return 0 }
func (coinProposer) Tag(int, mtm.NodeID) uint64  { return 0 }
func (coinProposer) Exchange(_ int, c *mtm.Conn) { c.ChargeBits(1) }
func (coinProposer) Done() bool                  { return false }
func (coinProposer) Decide(_ int, _ mtm.NodeID, v mtm.View, rng *prand.RNG) mtm.Action {
	if len(v.IDs) == 0 || rng.Intn(2) == 0 {
		return mtm.Listen()
	}
	return mtm.Propose(int(v.IDs[rng.Intn(len(v.IDs))]))
}

// stagedRound is everything observable after a round: the engine's stats,
// the schedule's epoch (what the session's adversary_epoch event reports),
// list, CSR and delta, and the checkpoint of the engine and the schedule.
type stagedRound struct {
	stats mtm.RoundStats
	epoch int
	edges []uint64
	csr   []uint64
	name  string
	delta dyngraph.Delta
	ckpt  []byte
}

// stageRun drives coinProposer over topo for rounds rounds, rebuilding the
// schedule at round rebind (as Simulation.Rebind does) and moving the run
// into a fresh engine and schedule through a checkpoint before round
// resume. With ahead set, the test itself stages every stageable epoch on
// this goroutine after the round before it has been read, so each one is
// staged whether or not a helper was parked for the engine's offer. It
// returns every round and the stages run, the engine's and the test's.
func stageRun(t *testing.T, topo mobilegossip.Topology, n, tau, rounds, rebind, resume int, ahead bool) ([]stagedRound, int) {
	t.Helper()
	stages := new(atomic.Int32)
	build := func() countStages {
		dyn, err := topo.Build(n, tau, 77)
		if err != nil {
			t.Fatal(err)
		}
		return countStages{dyn.(stepped), stages}
	}
	cfg := mtm.Config{Seed: 5, MaxRounds: rounds}
	sched := build()
	eng := mtm.NewEngine(sched, coinProposer{}, cfg)
	checkpoint := func() []byte {
		var buf bytes.Buffer
		w := ckpt.NewWriter(&buf)
		eng.Layout(w.Fields())
		sched.Layout(w.Fields())
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var out []stagedRound
	for r := 1; r <= rounds; r++ {
		switch r {
		case rebind:
			sched = build()
			eng.SetDynamic(sched)
		case resume:
			b := checkpoint()
			sched = build()
			eng = mtm.NewEngine(sched, coinProposer{}, cfg)
			rd := ckpt.NewReader(bytes.NewReader(b))
			if err := eng.Layout(rd.Fields()); err != nil {
				t.Fatal(err)
			}
			if err := sched.Layout(rd.Fields()); err != nil {
				t.Fatal(err)
			}
		}
		st, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		g := sched.At(r)
		out = append(out, stagedRound{
			stats: st, epoch: sched.Epoch(), edges: slices.Clone(sched.Edges()),
			csr: g.AppendPackedEdges(nil), name: g.Name(), delta: sched.DeltaFor(r), ckpt: checkpoint(),
		})
		if ahead && sched.Stageable(r+1) {
			sched.Stage(r + 1)
		}
	}
	return out, int(stages.Load())
}

// TestConcurrentStageMatchesInline: an epoch staged ahead of its round is
// the epoch At produces inline. Every Stepper-backed motion model, bare and
// under every oblivious and catastrophic strategy, at τ = 1 and 3, runs
// inline (GOMAXPROCS 1: no helper), then with every epoch staged by the test
// between rounds, then at GOMAXPROCS 2 and 4, where the engine offers each
// epoch to a helper beside the round before it; every round's stats, epoch,
// list, CSR, delta and checkpoint must equal the inline run's, across a
// rebind at round 7 and a resume from round 13's checkpoint. Whether a
// helper takes an offer is timing, so only the test's own stages are
// counted here; TestDeterminismMatrixCellStages checks that offers land.
func TestConcurrentStageMatchesInline(t *testing.T) {
	defer mtm.SetExchangeMin(1)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n, rounds, rebind, resume = 160, 18, 7, 13
	models := []mobilegossip.TopologyKind{mobilegossip.MobileWaypoint, mobilegossip.MobileLevy, mobilegossip.MobileGroup, mobilegossip.MobileCommuter}
	advs := []mobilegossip.AdversaryKind{mobilegossip.AdvNone, mobilegossip.AdvBipartition, mobilegossip.AdvBridges,
		mobilegossip.AdvPartition, mobilegossip.AdvBlackout, mobilegossip.AdvTopK}
	for _, kind := range models {
		for _, adv := range advs {
			for _, tau := range []int{1, 3} {
				topo := mobilegossip.Topology{Kind: kind, Speed: 0.05, Adversary: adv, AdvBudget: 40, AdvPeriod: 2}
				t.Run(fmt.Sprintf("%s/%s/τ=%d", kind, adv, tau), func(t *testing.T) {
					runtime.GOMAXPROCS(1)
					want, _ := stageRun(t, topo, n, tau, rounds, rebind, resume, false)
					for _, c := range []struct {
						gmp   int
						ahead bool
					}{{1, true}, {2, false}, {4, false}} {
						runtime.GOMAXPROCS(c.gmp)
						got, stages := stageRun(t, topo, n, tau, rounds, rebind, resume, c.ahead)
						if c.ahead && stages == 0 {
							t.Fatal("staging every epoch ahead staged none")
						}
						for i := range want {
							w, g := want[i], got[i]
							switch {
							case g.stats != w.stats || g.epoch != w.epoch || g.name != w.name || g.delta != w.delta:
								t.Fatalf("GOMAXPROCS %d, ahead %v, round %d: %+v epoch %d %q %+v, inline %+v epoch %d %q %+v",
									c.gmp, c.ahead, i+1, g.stats, g.epoch, g.name, g.delta, w.stats, w.epoch, w.name, w.delta)
							case !slices.Equal(g.edges, w.edges) || !slices.Equal(g.csr, w.csr):
								t.Fatalf("GOMAXPROCS %d, ahead %v, round %d: list or CSR differs from the inline run's", c.gmp, c.ahead, i+1)
							case !bytes.Equal(g.ckpt, w.ckpt):
								t.Fatalf("GOMAXPROCS %d, ahead %v, round %d: checkpoint differs from the inline run's", c.gmp, c.ahead, i+1)
							}
						}
					}
				})
			}
		}
	}
}

// TestConcurrentAdaptiveNeverStages: CutRich and Isolate read the live
// token state, so their epochs are never produced ahead of their round —
// Stageable is false at every epoch boundary and the engine stages nothing.
func TestConcurrentAdaptiveNeverStages(t *testing.T) {
	defer mtm.SetExchangeMin(1)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, adv := range []mobilegossip.AdversaryKind{mobilegossip.AdvCutRich, mobilegossip.AdvIsolate} {
		topo := mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Speed: 0.05, Adversary: adv, AdvBudget: 40}
		dyn, err := topo.Build(160, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r <= 12; r++ {
			dyn.At(r)
			if dyn.(dyngraph.Stager).Stageable(r + 1) {
				t.Fatalf("%s: round %d's epoch is stageable", adv, r+1)
			}
		}
		if _, stages := stageRun(t, topo, 160, 1, 12, 0, 0, false); stages != 0 {
			t.Fatalf("%s: the engine staged %d epochs", adv, stages)
		}
	}
}

// TestDeterminismMatrixCellStages guards make determinism-matrix's staging
// cell (gossipsim -alg sharedbit -graph waypoint -adversary bipartition
// -advbudget 2000 -n 8192 -k 8 -tau 1 -seed 5 -maxrounds 40): its rounds
// must form enough connections to start the engine's helpers, and with a
// helper parked the engine's offers must really stage its epochs — or the
// cell compares inline runs only. An offer lands only if a helper is parked
// just then, so the six-round schedule run is retried until one does.
func TestDeterminismMatrixCellStages(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const n = 8192
	topo := mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Adversary: mobilegossip.AdvBipartition, AdvBudget: 2000}
	sim, err := mobilegossip.New(mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: n, K: 8, Tau: 1, MaxRounds: 40, Seed: 5, Topology: topo,
	})
	if err != nil {
		t.Fatal(err)
	}
	if topo := sim.Result().Topology; topo != "adv(bipartition,τ=1)+mobility(waypoint(v=0.01),τ=1,r=0.0176)" {
		t.Fatalf("topology %q, not the cell's", topo)
	}
	most := 0
	for !sim.Done() && most < mtm.ExchangeMin() {
		st, err := sim.Step()
		if err != nil {
			t.Fatal(err)
		}
		most = max(most, st.Connections)
	}
	if most < mtm.ExchangeMin() {
		t.Fatalf("no round formed %d connections (most %d): no helper starts", mtm.ExchangeMin(), most)
	}
	for try := 0; try < 20; try++ {
		if _, stages := stageRun(t, topo, n, 1, 6, 0, 0, false); stages > 0 {
			return
		}
	}
	t.Fatal("in 20 runs of six rounds, no epoch of the cell's schedule was staged")
}
