package adversary

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/mobility"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
)

// staticBase returns a fresh 4-regular base schedule (adversary engines
// mutate shared state, so every engine gets its own).
func staticBase(n int, seed uint64) dyngraph.Dynamic {
	return dyngraph.NewStatic(graph.RandomRegular(n, 4, prand.New(seed)))
}

// mobileBase returns a fresh random-waypoint mobility schedule.
func mobileBase(n, tau int, seed uint64) dyngraph.Dynamic {
	return mobility.New(mobility.Waypoint(0.05, 1), mobility.Options{N: n, Tau: tau, Seed: seed})
}

// fakeReader is a deterministic StateReader for tests: node u knows
// (u*7)%13 tokens, shifted per round so the adaptive strategies see
// changing state.
type fakeReader struct{ shift int }

func (f fakeReader) TokenCount(u int) int { return (u*7 + f.shift) % 13 }

// TestStrategiesConnectedAndPatchMatchesRebuild is the load ≡ rebuild
// quick-check of the ISSUE's property satellite, run for every strategy
// over both a static and a mobility base across 50 epochs: at every round
// the CSR loaded from the effective edge list must be element-for-element
// identical to a from-scratch Builder rebuild, name included, and connected.
func TestStrategiesConnectedAndPatchMatchesRebuild(t *testing.T) {
	const n, tau, rounds = 60, 2, 101
	for _, mk := range []struct {
		label string
		base  func(seed uint64) dyngraph.Dynamic
	}{
		{"static", func(seed uint64) dyngraph.Dynamic { return staticBase(n, seed) }},
		{"mobility", func(seed uint64) dyngraph.Dynamic { return mobileBase(n, tau, seed) }},
	} {
		for _, strat := range Strategies() {
			t.Run(mk.label+"/"+strat.Name(), func(t *testing.T) {
				opts := Options{Tau: tau, Seed: 91, Budget: 0}
				patched := New(mk.base(7), strat, opts)
				oracle := New(mk.base(7), strat, Options{Tau: tau, Seed: 91, Rebuild: true})
				patched.Bind(fakeReader{})
				oracle.Bind(fakeReader{})
				for r := 1; r <= rounds; r++ {
					pg, og := patched.At(r), oracle.At(r)
					if !pg.Connected() {
						t.Fatalf("round %d: disconnected topology", r)
					}
					if !pg.EqualCSR(og) || pg.Name() != og.Name() {
						t.Fatalf("round %d: loaded CSR %q diverges from rebuild oracle %q", r, pg.Name(), og.Name())
					}
				}
			})
		}
	}
}

// TestDeterministicReplay pins byte-determinism: two engines over the same
// seed produce identical CSRs, and a backward query replays the schedule.
func TestDeterministicReplay(t *testing.T) {
	for _, strat := range Strategies() {
		t.Run(strat.Name(), func(t *testing.T) {
			a := New(staticBase(48, 3), strat, Options{Tau: 1, Seed: 5})
			b := New(staticBase(48, 3), strat, Options{Tau: 1, Seed: 5})
			for r := 1; r <= 20; r++ {
				if !a.At(r).EqualCSR(b.At(r)) {
					t.Fatalf("round %d differs across identically seeded engines", r)
				}
			}
			// Oblivious/catastrophic strategies replay exactly (unbound
			// adaptive ones see constant zero state, so they do too).
			snap := a.At(5)
			edges := snap.AppendPackedEdges(nil)
			a.At(20)
			replayed := a.At(5).AppendPackedEdges(nil)
			if len(edges) != len(replayed) {
				t.Fatalf("replay edge count %d, want %d", len(replayed), len(edges))
			}
			for i := range edges {
				if edges[i] != replayed[i] {
					t.Fatalf("replayed round 5 differs at edge %d", i)
				}
			}
		})
	}
}

// TestDeltaMatchesGraphDiff checks DeltaFor against the generic diff of the
// consecutive topologies for every strategy.
func TestDeltaMatchesGraphDiff(t *testing.T) {
	for _, strat := range Strategies() {
		t.Run(strat.Name(), func(t *testing.T) {
			e := New(staticBase(48, 11), strat, Options{Tau: 1, Seed: 17})
			e.Bind(fakeReader{shift: 3})
			prev := e.At(1).AppendPackedEdges(nil)
			for r := 2; r <= 24; r++ {
				cur := e.At(r).AppendPackedEdges(nil)
				d := e.DeltaFor(r)
				wantAdd, wantRem := graph.DiffPacked(prev, cur)
				if d.Added != wantAdd || d.Removed != wantRem {
					t.Fatalf("round %d: delta (+%d,-%d), graph diff (+%d,-%d)",
						r, d.Added, d.Removed, wantAdd, wantRem)
				}
				prev = cur
			}
		})
	}
}

// TestBudgetBoundsDestruction checks the per-epoch budget: at most Budget
// base edges may be missing from any round's topology.
func TestBudgetBoundsDestruction(t *testing.T) {
	base := graph.RandomRegular(64, 4, prand.New(23))
	for _, budget := range []int{1, 4, 9} {
		for _, strat := range Strategies() {
			e := New(dyngraph.NewStatic(base), strat, Options{Tau: 1, Seed: 29, Budget: budget})
			e.Bind(fakeReader{shift: 1})
			for r := 1; r <= 16; r++ {
				g := e.At(r)
				missing := 0
				for u := 0; u < base.N(); u++ {
					for _, v := range base.Adjacency(u) {
						if int32(u) < v && !g.HasEdge(u, int(v)) {
							missing++
						}
					}
				}
				if missing > budget {
					t.Fatalf("%s budget %d: round %d is missing %d base edges",
						strat.Name(), budget, r, missing)
				}
			}
		}
	}
}

// TestAdaptiveReadsState checks that Isolate actually aims at the reader's
// token-richest node: its base edges are gone from the perturbed topology.
func TestAdaptiveReadsState(t *testing.T) {
	base := graph.RandomRegular(40, 4, prand.New(41))
	e := New(dyngraph.NewStatic(base), Isolate(), Options{Tau: 1, Seed: 43})
	rich := 27
	e.Bind(readerFunc(func(u int) int {
		if u == rich {
			return 100
		}
		return 0
	}))
	// Every base edge of the rich node is cut; what survives are at most
	// the two chain bridges connectivity repair may hang on it.
	g := e.At(1)
	if d := g.Degree(rich); d > 2 {
		t.Fatalf("rich node kept degree %d (base %d); isolation did not fire", d, base.Degree(rich))
	}
	// Unbound, the same seed isolates node 0 (all-zero ties break by id).
	e2 := New(dyngraph.NewStatic(base), Isolate(), Options{Tau: 1, Seed: 43})
	if d := e2.At(1).Degree(0); d > 2 {
		t.Fatalf("unbound isolate did not target node 0 (degree %d)", d)
	}
}

type readerFunc func(u int) int

func (f readerFunc) TokenCount(u int) int { return f(u) }

// TestFrozenAdversary pins the Tau ≤ 0 semantics: one perturbation, then a
// never-changing (τ = ∞) topology.
func TestFrozenAdversary(t *testing.T) {
	e := New(staticBase(32, 51), Bipartition(), Options{Tau: 0, Seed: 53})
	if e.TauString() != "τ=∞" {
		t.Fatalf("TauString() = %q, want τ=∞", e.TauString())
	}
	g1 := e.At(1)
	if g100 := e.At(100); g100 != g1 {
		t.Fatal("frozen adversary changed its topology")
	}
	if d := e.DeltaFor(50); d.Change() {
		t.Fatal("frozen adversary reported a delta")
	}
	if !g1.Connected() {
		t.Fatal("frozen perturbed topology disconnected")
	}
}

// TestCheckpointRestore snapshots every strategy mid-run (over both base
// families) and requires the restored engine to continue byte-identically.
func TestCheckpointRestore(t *testing.T) {
	const n, tau, at, rounds = 48, 2, 11, 31
	for _, mk := range []struct {
		label string
		base  func(seed uint64) dyngraph.Dynamic
	}{
		{"static", func(seed uint64) dyngraph.Dynamic { return staticBase(n, seed) }},
		{"mobility", func(seed uint64) dyngraph.Dynamic { return mobileBase(n, tau, seed) }},
	} {
		for _, strat := range Strategies() {
			t.Run(mk.label+"/"+strat.Name(), func(t *testing.T) {
				opts := Options{Tau: tau, Seed: 61}
				orig := New(mk.base(9), strat, opts)
				orig.Bind(fakeReader{})
				orig.At(at)

				var buf bytes.Buffer
				w := ckpt.NewWriter(&buf)
				orig.Layout(w.Fields())
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}

				restored := New(mk.base(9), strat, opts)
				restored.Bind(fakeReader{})
				if err := restored.Layout(ckpt.NewReader(&buf).Fields()); err != nil {
					t.Fatalf("Layout read: %v", err)
				}
				for r := at; r <= rounds; r++ {
					if !orig.At(r).EqualCSR(restored.At(r)) {
						t.Fatalf("round %d diverges after restore", r)
					}
				}
			})
		}
	}
}

// TestRestoreRejectsMismatch pins the loud-failure contract for wrong-shape
// streams.
func TestRestoreRejectsMismatch(t *testing.T) {
	small := New(staticBase(16, 1), Bipartition(), Options{Tau: 1, Seed: 2})
	small.At(3)
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	small.Layout(w.Fields())
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	big := New(staticBase(32, 1), Bipartition(), Options{Tau: 1, Seed: 2})
	if err := big.Layout(ckpt.NewReader(&buf).Fields()); err == nil {
		t.Fatal("restore across node counts succeeded")
	}
	// Truncated stream: error, not panic.
	small.At(5)
	buf.Reset()
	w = ckpt.NewWriter(&buf)
	small.Layout(w.Fields())
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/3]
	fresh := New(staticBase(16, 1), Bipartition(), Options{Tau: 1, Seed: 2})
	if err := fresh.Layout(ckpt.NewReader(bytes.NewReader(trunc)).Fields()); err == nil {
		t.Fatal("truncated restore succeeded")
	}
}

// TestRestoreRejectsCorruptEdgeList pins the restore-time validation: a
// tampered checkpoint whose edge list carries an out-of-range endpoint or
// breaks canonical order must fail a Layout read by error — not reach
// Patcher.Load, which panics on such a list — and so must an epoch no
// engine can be in, which would otherwise resume on the wrong trajectory.
func TestRestoreRejectsCorruptEdgeList(t *testing.T) {
	write := func(epoch int, edges []uint64) []byte {
		var buf bytes.Buffer
		w := ckpt.NewWriter(&buf)
		w.Section("adversary.engine")
		w.Int(8)
		for i := 0; i < 4; i++ {
			w.U64(uint64(i + 1))
		}
		w.Int(epoch)
		w.U64s(edges)
		w.Bool(false) // stateless base
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	good := []uint64{graph.PackEdge(0, 1), graph.PackEdge(1, 2), graph.PackEdge(2, 7)}
	cases := map[string]struct {
		epoch int
		edges []uint64
	}{
		"endpoint out of range": {2, []uint64{graph.PackEdge(0, 1), uint64(2)<<32 | 1000}},
		"self loop":             {2, []uint64{uint64(3)<<32 | 3}},
		"reversed orientation":  {2, []uint64{uint64(5)<<32 | 2}},
		"not ascending":         {2, []uint64{graph.PackEdge(2, 3), graph.PackEdge(0, 1)}},
		"duplicate":             {2, []uint64{graph.PackEdge(0, 1), graph.PackEdge(0, 1)}},
		"negative epoch":        {-3, good},
		"no epoch yet a list":   {-1, good},
	}
	for name, tc := range cases {
		e := New(staticBase(8, 1), Bipartition(), Options{Tau: 1, Seed: 2})
		err := e.Layout(ckpt.NewReader(bytes.NewReader(write(tc.epoch, tc.edges))).Fields())
		if err == nil || !strings.HasPrefix(err.Error(), "adversary: ") {
			t.Errorf("%s: corrupt checkpoint restored with error %v", name, err)
		}
	}
	// The same stream with a clean list restores and keeps stepping, and so
	// does the pre-round-1 state a lazy engine checkpoints.
	for _, clean := range [][]byte{write(2, good), write(-1, nil)} {
		e := New(staticBase(8, 1), Bipartition(), Options{Tau: 1, Seed: 2})
		if err := e.Layout(ckpt.NewReader(bytes.NewReader(clean)).Fields()); err != nil {
			t.Fatalf("clean restore failed: %v", err)
		}
		if g := e.At(9); !g.Connected() {
			t.Fatal("post-restore topology disconnected")
		}
	}
}

// nodeCutter cuts the listed nodes in order, ids outside the graph included.
type nodeCutter []int

func (nodeCutter) Name() string { return "nodecutter" }
func (c nodeCutter) Perturb(_ *Epoch, ops *Ops) {
	for _, u := range c {
		ops.CutNode(u)
	}
}

// richFirst gives node u 10−u tokens, so CutRich cuts nodes 0, 1, 2, ...
type richFirst struct{}

func (richFirst) TokenCount(u int) int { return 10 - u }

// TestAdjacentCutNodesShareOneCut: two adjacent cut nodes offer their shared
// edge twice, and it is cut once for one unit of budget. On K4, CutRich cuts
// node 0's three edges and then node 1's other two, which spends a budget of
// 5 exactly; counting {0,1} twice would spend a unit on it and leave {1,3}
// standing. Cutting a node twice spends nothing more, and nodes outside the
// graph are ignored.
func TestAdjacentCutNodesShareOneCut(t *testing.T) {
	want := []uint64{graph.PackEdge(0, 1), graph.PackEdge(0, 2), graph.PackEdge(0, 3), graph.PackEdge(1, 2), graph.PackEdge(1, 3)}
	for _, strat := range []Strategy{CutRich(), nodeCutter{-1, 4, 0, 0, 1, 2}} {
		e := New(dyngraph.NewStatic(graph.Complete(4)), strat, Options{Tau: 1, Seed: 3, Budget: 5})
		e.Bind(richFirst{})
		list := e.produce(0, nil)
		if !slices.Equal(e.ops.cuts, want) || !e.ops.Exhausted() || !slices.Equal(list, []uint64{graph.PackEdge(2, 3)}) {
			t.Errorf("%s: cuts %v (budget spent: %v), effective list %v; want cuts %v and the list [{2,3}]",
				strat.Name(), e.ops.cuts, e.ops.Exhausted(), list, want)
		}
	}
}

// countingModel counts how often the stepping layer above asks a motion
// model to start over and to move, in either of the schedule's slots: a
// mirror counts into the same tally.
type countingModel struct {
	mobility.Model
	*tally
}

type tally struct{ inits, steps int }

func newCountingModel(m mobility.Model) *countingModel { return &countingModel{m, &tally{}} }

func (m *countingModel) Mirror(dst mobility.Model) mobility.Model {
	d, _ := dst.(*countingModel)
	if d == nil {
		d = &countingModel{tally: m.tally}
	}
	d.Model = m.Model.Mirror(d.Model)
	return d
}

func (m *countingModel) Init(n int, rng *prand.RNG, x, y []float64) {
	m.inits++
	m.Model.Init(n, rng, x, y)
}

func (m *countingModel) Step(epoch int, rng *prand.RNG, x, y []float64) {
	m.steps++
	m.Model.Step(epoch, rng, x, y)
}

// TestStackedInnerAdvancesOncePerOuterEpoch: an adversary at τ = 2 over a
// mobility schedule at τ = 2 pulls the base once per epoch of its own — the
// inner trajectory moves exactly once per outer epoch, never rewinds, and
// both layers sit in the same epoch at every round.
func TestStackedInnerAdvancesOncePerOuterEpoch(t *testing.T) {
	const n, tau, rounds = 60, 2, 41
	model := newCountingModel(mobility.Waypoint(0.05, 1))
	inner := mobility.New(model, mobility.Options{N: n, Tau: tau, Seed: 7})
	outer := New(inner, Bipartition(), Options{Tau: tau, Seed: 91})
	for r := 1; r <= rounds; r++ {
		outer.At(r)
		outer.DeltaFor(r)
		want := (r - 1) / tau
		if outer.Epoch() != want || inner.Epoch() != want || model.steps != want || model.inits != 1 {
			t.Fatalf("round %d: outer epoch %d, inner epoch %d, %d moves, %d placements; want epoch %d, as many moves, one placement",
				r, outer.Epoch(), inner.Epoch(), model.steps, model.inits, want)
		}
	}
}

// countingStrategy counts the epochs its strategy is run for.
type countingStrategy struct {
	Strategy
	perturbs int
}

func (c *countingStrategy) Perturb(ep *Epoch, ops *Ops) {
	c.perturbs++
	c.Strategy.Perturb(ep, ops)
}

// TestJumpMovesEveryEpochAndPerturbsTwice pins what a rebound schedule's
// first query costs: asked for round R before any other, the stack moves
// the crowd once per skipped round — the trajectory is those draws — and
// runs the strategy for R's epoch and the one before it, nothing else.
func TestJumpMovesEveryEpochAndPerturbsTwice(t *testing.T) {
	const n, R = 60, 31
	model := newCountingModel(mobility.Waypoint(0.05, 1))
	strat := &countingStrategy{Strategy: Bipartition()}
	inner := mobility.New(model, mobility.Options{N: n, Tau: 1, Seed: 7})
	outer := New(inner, strat, Options{Tau: 1, Seed: 91, Budget: 10})
	outer.DeltaFor(R)
	if outer.Epoch() != R-1 || inner.Epoch() != R-1 || model.steps != R-1 || model.inits != 1 || strat.perturbs != 2 {
		t.Fatalf("first query at round %d: outer epoch %d, inner epoch %d, %d moves, %d placements, %d perturbations; want epoch %d, %d moves, one placement, two perturbations",
			R, outer.Epoch(), inner.Epoch(), model.steps, model.inits, strat.perturbs, R-1, R-1)
	}
}

// schedule is what the mobility Schedule and the Engine both are.
type schedule interface {
	dyngraph.DeltaDynamic
	dyngraph.Checkpointer
	Edges() []uint64
}

// reached is everything observable of a schedule sitting at round r.
type reached struct {
	name  string
	edges []uint64
	delta dyngraph.Delta
	ckpt  []byte
}

func reach(t *testing.T, s schedule, r int) reached {
	t.Helper()
	g := s.At(r)
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	s.Layout(w.Fields())
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return reached{g.Name(), slices.Clone(s.Edges()), s.DeltaFor(r), buf.Bytes()}
}

func (a reached) equal(b reached) bool {
	return a.name == b.name && slices.Equal(a.edges, b.edges) && a.delta == b.delta && bytes.Equal(a.ckpt, b.ckpt)
}

// TestJumpEqualsWalk: a schedule asked for round R only — fresh, after a
// backward query, or restored from an early checkpoint — ends where one
// asked for rounds 1, 2, …, R ends: same graph name, edge list, delta and
// checkpoint bytes (RNG words, positions, model state, both layers'). The
// walk is what every schedule did before jumps skipped work, so it is the
// oracle. Every motion model, bare and under every catalogue strategy with
// a budget, at τ = 1 and 3; R opens an epoch at both, so the delta is live.
func TestJumpEqualsWalk(t *testing.T) {
	const n, R, early = 40, 22, 4
	models := map[string]func() mobility.Model{
		"waypoint": func() mobility.Model { return mobility.Waypoint(0.05, 2) },
		"levy":     func() mobility.Model { return mobility.Levy(0.05, 1.6) },
		"group":    func() mobility.Model { return mobility.Group(3, 0.7, 0.05) },
		"commuter": func() mobility.Model { return mobility.Commuter(0.05, 10) },
	}
	for mname, model := range models {
		for _, strat := range append([]Strategy{nil}, Strategies()...) {
			for _, tau := range []int{1, 3} {
				layer := "bare"
				if strat != nil {
					layer = strat.Name()
				}
				t.Run(fmt.Sprintf("%s/%s/τ=%d", mname, layer, tau), func(t *testing.T) {
					build := func() schedule {
						base := mobility.New(model(), mobility.Options{N: n, Tau: tau, Seed: 13})
						if strat == nil {
							return base
						}
						e := New(base, strat, Options{Tau: tau, Seed: 17, Budget: 6})
						e.Bind(fakeReader{shift: 5})
						return e
					}
					walk := build()
					var walked, walkedEarly reached
					for r := 1; r <= R+3; r++ {
						walk.DeltaFor(r)
						switch r {
						case early:
							walkedEarly = reach(t, walk, r)
						case R:
							walked = reach(t, walk, r)
						}
					}
					if jumped := reach(t, build(), R); !jumped.equal(walked) {
						t.Fatalf("a fresh schedule asked for round %d only is at %q with %d edges, delta %+v; walking there gives %q, %d, %+v (checkpoints equal: %v)",
							R, jumped.name, len(jumped.edges), jumped.delta, walked.name, len(walked.edges), walked.delta, bytes.Equal(jumped.ckpt, walked.ckpt))
					}
					if back := reach(t, walk, R); !back.equal(walked) { // walk sits at R+3
						t.Fatalf("a backward query to round %d does not land where the walk passed", R)
					}
					restored := build()
					if err := restored.Layout(ckpt.NewReader(bytes.NewReader(walkedEarly.ckpt)).Fields()); err != nil {
						t.Fatal(err)
					}
					if resumed := reach(t, restored, R); !resumed.equal(walked) {
						t.Fatalf("restored at round %d and asked for round %d, the schedule left the walk", early, R)
					}
				})
			}
		}
	}
}

// randProto is a minimal protocol (propose to a uniform neighbor with
// probability 1/2) exercising the engine over an adversarial schedule.
type randProto struct{}

func (p *randProto) TagBits() int               { return 0 }
func (p *randProto) Tag(int, mtm.NodeID) uint64 { return 0 }
func (p *randProto) Done() bool                 { return false }
func (p *randProto) Exchange(_ int, c *mtm.Conn) {
	c.ChargeBits(1)
}
func (p *randProto) Decide(_ int, _ mtm.NodeID, view mtm.View, rng *prand.RNG) mtm.Action {
	if len(view.IDs) == 0 || rng.Bool() {
		return mtm.Listen()
	}
	return mtm.Propose(int(view.IDs[rng.Intn(len(view.IDs))]))
}

// TestConcurrentEngineOverAdversary drives four engines at once, each over
// its own adaptive adversarial schedule (as a sweep pool or the daemon
// does), and requires every one to match a lone run exactly: schedules
// share no mutable state across instances. Run under -race
// (make race-concurrent).
func TestConcurrentEngineOverAdversary(t *testing.T) {
	run := func() mtm.Result {
		adv := New(mobileBase(40, 1, 77), CutRich(), Options{Tau: 1, Seed: 79, Budget: 10})
		adv.Bind(fakeReader{shift: 2})
		res, err := mtm.NewEngine(adv, &randProto{}, mtm.Config{Seed: 81, MaxRounds: 40}).Run()
		if err != nil {
			t.Error(err)
		}
		return res
	}
	want := run()
	got := make([]mtm.Result, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run()
		}()
	}
	wg.Wait()
	for i, res := range got {
		if res != want {
			t.Fatalf("concurrent engine %d diverged over adversary:\n got  %+v\n want %+v", i, res, want)
		}
	}
}

// TestNameAndStrategyAccessors covers the display plumbing.
func TestNameAndStrategyAccessors(t *testing.T) {
	e := New(staticBase(16, 1), Bridges(3), Options{Tau: 4, Seed: 1})
	want := fmt.Sprintf("adv(%s,τ=4)+%s", Bridges(3).Name(), staticBase(16, 1).Name())
	if e.Name() != want {
		t.Fatalf("Name() = %q, want %q", e.Name(), want)
	}
	if e.N() != 16 {
		t.Fatalf("N() = %d", e.N())
	}
}

// graphOnly hides a base schedule's List, so the Engine over it reads the
// base through At and AppendPackedEdges, as it reads a Static or Regen base.
type graphOnly struct{ schedule }

// TestListPathMatchesGraphPath: an Engine over a mobility base reads the
// base's own list (and builds the base's CSR only for the strategies that
// ask for the graph); over the same base with List hidden it flattens the
// base's graph. Every catalogue strategy, unlimited and under a budget, must
// give the same outer list, delta and checkpoint bytes on both paths: at
// every round of a walk, at a far first query (a rebind's jump), and after
// a restore from a mid-run checkpoint into either path.
func TestListPathMatchesGraphPath(t *testing.T) {
	const n, rounds, far, at = 60, 24, 37, 9
	for _, strat := range Strategies() {
		for _, budget := range []int{0, 7} {
			for _, tau := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/budget=%d/τ=%d", strat.Name(), budget, tau), func(t *testing.T) {
					build := func(hide bool) schedule {
						var base schedule = mobility.New(mobility.Waypoint(0.05, 2), mobility.Options{N: n, Tau: tau, Seed: 13})
						if hide {
							base = graphOnly{base}
						}
						e := New(base, strat, Options{Tau: tau, Seed: 17, Budget: budget})
						e.Bind(fakeReader{shift: 5})
						return e
					}
					listed, graphed := build(false), build(true)
					var mid []byte
					for r := 1; r <= rounds; r++ {
						a, b := reach(t, listed, r), reach(t, graphed, r)
						if !a.equal(b) {
							t.Fatalf("round %d: the list path gives %d edges, delta %+v; the graph path %d, %+v (checkpoints equal: %v)",
								r, len(a.edges), a.delta, len(b.edges), b.delta, bytes.Equal(a.ckpt, b.ckpt))
						}
						if r == at {
							mid = a.ckpt
						}
					}
					if a, b := reach(t, build(false), far), reach(t, build(true), far); !a.equal(b) {
						t.Fatalf("a first query at round %d lands apart on the two paths", far)
					}
					want := reach(t, listed, rounds)
					for _, hide := range []bool{false, true} {
						restored := build(hide)
						if err := restored.Layout(ckpt.NewReader(bytes.NewReader(mid)).Fields()); err != nil {
							t.Fatal(err)
						}
						if got := reach(t, restored, rounds); !got.equal(want) {
							t.Fatalf("restored at round %d (List hidden: %v), round %d leaves the walk", at, hide, rounds)
						}
					}
				})
			}
		}
	}
}

// TestBudgetKeepsListOrder: under a budget, the strategies that walk the
// base list (bipartition, bridges, partition) cut the first budget crossing
// edges in packed order — u ascending, then v > u ascending, the order a
// walk over each vertex's higher neighbors takes — so the list walk keeps
// the cuts the graph walk it replaced kept.
func TestBudgetKeepsListOrder(t *testing.T) {
	const n, budget = 80, 9
	base := mobileBase(n, 1, 23)
	for _, strat := range []Strategy{Bipartition(), Bridges(4), Partition(8)} {
		for _, epoch := range []int{0, 1, 2} {
			cuts := func(budget int) []uint64 {
				e := New(base, strat, Options{Tau: 1, Seed: 29, Budget: budget})
				e.produce(epoch, nil)
				return slices.Clone(e.ops.cuts)
			}
			all := cuts(0)
			if len(all) <= budget {
				t.Fatalf("%s epoch %d: only %d crossing edges, the budget cannot bind", strat.Name(), epoch, len(all))
			}
			if got := cuts(budget); !slices.Equal(got, all[:budget]) {
				t.Fatalf("%s epoch %d: budgeted cuts %v, want the first %d of the crossing edges %v", strat.Name(), epoch, got, budget, all[:budget])
			}
		}
	}
}
