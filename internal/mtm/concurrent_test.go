package mtm_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"mobilegossip"
	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/dyngraph"
	"mobilegossip/internal/graph"
	"mobilegossip/internal/mtm"
	"mobilegossip/internal/prand"
	"mobilegossip/internal/rumor"
)

// A round's exchanges may run on several goroutines, so each Exchange
// must touch only its two endpoints and its Conn. The audit behind this
// test: SharedBit, BlindMatch, MultiBit and SimSharedBit's gossip rounds
// run eqtest.Transfer, which writes the two endpoint sets and draws only
// from the initiator's stream (the sieve cache it reads is RWMutex-
// guarded); ε-gossip delegates to them; the leader election and
// CrowdedBin write only per-node slots of their endpoints; PPUSH writes
// the responder's flag and decrements its uninformed count atomically.
// The engine's own test doubles that record into shared state run on
// graphs too small to reach the fan-out minimum.

// concurrentRun is what TestConcurrentExchangeMatchesSequential compares
// across GOMAXPROCS settings.
type concurrentRun struct {
	res    any // a comparable result struct
	events []byte
	ckpt3  []byte
}

func runSession(t *testing.T, cfg mobilegossip.Config) concurrentRun {
	t.Helper()
	var events, ckpt3 bytes.Buffer
	sim, err := mobilegossip.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := mobilegossip.NewJSONLSink(sim.Bus(), &events, mobilegossip.EventFilter{}, 1<<16)
	for !sim.Done() {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		if sim.Round() == 3 {
			if err := sim.Checkpoint(&ckpt3); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sink.Close(); err != nil || sink.Dropped() != 0 {
		t.Fatalf("event sink: err %v, %d dropped", err, sink.Dropped())
	}
	return concurrentRun{sim.Result(), events.Bytes(), ckpt3.Bytes()}
}

// runPPUSH drives standalone PPUSH, which has no session, and records
// every round's stats, the final informed count and the round-3 engine
// checkpoint.
func runPPUSH(t *testing.T) concurrentRun {
	t.Helper()
	const n = 400
	p := rumor.New(n, []int{0, 1, 2})
	e := mtm.NewEngine(dyngraph.NewStatic(graph.RandomRegular(n, 4, prand.New(9))), p, mtm.Config{Seed: 19})
	var rounds, ckpt3 bytes.Buffer
	for !e.Finished() {
		st, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&rounds, "%+v\n", st)
		if e.Round() == 3 {
			w := ckpt.NewWriter(&ckpt3)
			e.CheckpointTo(w)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	fmt.Fprintln(&rounds, "informed", p.InformedCount())
	return concurrentRun{e.Result(), rounds.Bytes(), ckpt3.Bytes()}
}

// TestConcurrentExchangeMatchesSequential lowers the fan-out minimum to
// one connection and runs every engine-driven algorithm at GOMAXPROCS 1,
// 2 and 4: the Result, the event JSONL and the round-3 checkpoint must
// equal the inline run's byte for byte.
func TestConcurrentExchangeMatchesSequential(t *testing.T) {
	defer mtm.SetExchangeMin(1)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	regular := mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4}
	mobile := mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Speed: 0.03}
	session := func(cfg mobilegossip.Config) func(*testing.T) concurrentRun {
		return func(t *testing.T) concurrentRun { return runSession(t, cfg) }
	}
	cases := []struct {
		name string
		run  func(*testing.T) concurrentRun
	}{
		{"sharedbit", session(mobilegossip.Config{Algorithm: mobilegossip.AlgSharedBit, N: 300, K: 16, Topology: regular, Seed: 41})},
		{"sharedbit_mobile", session(mobilegossip.Config{Algorithm: mobilegossip.AlgSharedBit, N: 200, K: 8, Topology: mobile, Tau: 1, Seed: 42})},
		{"simsharedbit", session(mobilegossip.Config{Algorithm: mobilegossip.AlgSimSharedBit, N: 200, K: 8, Topology: regular, Seed: 43})},
		{"blindmatch", session(mobilegossip.Config{Algorithm: mobilegossip.AlgBlindMatch, N: 200, K: 8, Topology: regular, Seed: 44})},
		{"crowdedbin", session(mobilegossip.Config{Algorithm: mobilegossip.AlgCrowdedBin, N: 48, K: 4, Topology: regular, Seed: 45})},
		{"multibit", session(mobilegossip.Config{Algorithm: mobilegossip.AlgSharedBit, N: 200, K: 8, Topology: regular, TagBits: 4, Seed: 46})},
		{"epsilon", session(mobilegossip.Config{Algorithm: mobilegossip.AlgSharedBit, N: 120, K: 120, Topology: regular, Epsilon: 0.5, Seed: 47})},
		{"ppush", runPPUSH},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			want := tc.run(t)
			if len(want.ckpt3) == 0 {
				t.Fatalf("run %+v wrote no round-3 checkpoint", want.res)
			}
			for _, gmp := range []int{2, 4} {
				runtime.GOMAXPROCS(gmp)
				got := tc.run(t)
				switch {
				case got.res != want.res:
					t.Fatalf("GOMAXPROCS %d: result %+v, want %+v", gmp, got.res, want.res)
				case !bytes.Equal(got.events, want.events):
					t.Fatalf("GOMAXPROCS %d: event stream differs", gmp)
				case !bytes.Equal(got.ckpt3, want.ckpt3):
					t.Fatalf("GOMAXPROCS %d: round-3 checkpoint differs", gmp)
				}
			}
		})
	}
}

// TestDeterminismMatrixCellFansOut guards make determinism-matrix's fan-out
// cell (gossipsim -alg sharedbit -graph regular -n 4096 -k 64 -seed 5
// -maxrounds 40): some round of that run must form at least the fan-out
// minimum of connections, or the cell compares only inline rounds.
func TestDeterminismMatrixCellFansOut(t *testing.T) {
	sim, err := mobilegossip.New(mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 4096, K: 64, MaxRounds: 40, Seed: 5,
		Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if topo := sim.Result().Topology; topo != "static:regular(4096,4)" {
		t.Fatalf("topology %q, want the cell's static:regular(4096,4)", topo)
	}
	most := 0
	for !sim.Done() {
		st, err := sim.Step()
		if err != nil {
			t.Fatal(err)
		}
		if most = max(most, st.Connections); most >= mtm.ExchangeMin() {
			return
		}
	}
	t.Fatalf("no round formed %d connections (most %d)", mtm.ExchangeMin(), most)
}
