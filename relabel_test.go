package mobilegossip_test

// Public-API tests for the cache-aware Relabel knob: relabeling must be
// deterministic and compose with regeneration and checkpoint/resume.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"mobilegossip"
)

// phiTrace is a run summary plus its full per-round potential trace, so
// comparisons see every round boundary rather than only totals.
type phiTrace struct {
	mobilegossip.NopObserver
	res mobilegossip.Result
	phi []int
}

func (tr *phiTrace) EndRound(s mobilegossip.RoundStats) { tr.phi = append(tr.phi, s.Potential) }

func traceRun(t *testing.T, cfg mobilegossip.Config) phiTrace {
	t.Helper()
	var tr phiTrace
	cfg.Observers = []mobilegossip.Observer{&tr}
	res, err := mobilegossip.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr.res = res
	return tr
}

func samePhiTrace(t *testing.T, label string, got, want phiTrace) {
	t.Helper()
	if got.res != want.res {
		t.Fatalf("%s: result diverged:\n got %+v\nwant %+v", label, got.res, want.res)
	}
	if len(got.phi) != len(want.phi) {
		t.Fatalf("%s: %d potential samples, want %d", label, len(got.phi), len(want.phi))
	}
	for i := range got.phi {
		if got.phi[i] != want.phi[i] {
			t.Fatalf("%s: φ diverged at round %d: got %d want %d", label, i+1, got.phi[i], want.phi[i])
		}
	}
}

// TestRelabelDeterministic checks the cache-aware relabeling pass: each
// kind solves, is reproducible, reports itself in the topology name, and
// composes with τ-regeneration.
func TestRelabelDeterministic(t *testing.T) {
	for _, kind := range []mobilegossip.RelabelKind{mobilegossip.RelabelBFS, mobilegossip.RelabelDegree} {
		for _, tau := range []int{0, 2} {
			cfg := mobilegossip.Config{
				Algorithm: mobilegossip.AlgSharedBit, N: 64, K: 8,
				Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4, Relabel: kind},
				Tau:      tau, Seed: 71,
			}
			name := kind.String()
			want := traceRun(t, cfg)
			if !want.res.Solved {
				t.Fatalf("relabel %s tau %d: not solved in %d rounds", name, tau, want.res.Rounds)
			}
			if !strings.Contains(want.res.Topology, "+"+name) {
				t.Fatalf("relabel %s: topology name %q does not report the relabeling", name, want.res.Topology)
			}
			samePhiTrace(t, "relabel "+name+" rerun", traceRun(t, cfg), want)
		}
	}
}

// TestRelabelRejectsMobility: relabeling renumbers a generated graph, so
// the mobility kinds (whose node identity is positional) must refuse it.
func TestRelabelRejectsMobility(t *testing.T) {
	_, err := mobilegossip.New(mobilegossip.Config{
		Algorithm: mobilegossip.AlgSharedBit, N: 32, K: 4,
		Topology: mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Speed: 0.03, Relabel: mobilegossip.RelabelBFS},
		Tau:      1, Seed: 5,
	})
	if err == nil || !strings.Contains(err.Error(), "Relabel") {
		t.Fatalf("mobility + Relabel: err = %v, want a Relabel rejection", err)
	}
}

// TestRelabelCheckpointRoundTrip: Relabel is part of the topology spec and
// must survive the checkpoint stream (format v3) — a resumed relabeled run
// finishes identically to the uninterrupted one.
func TestRelabelCheckpointRoundTrip(t *testing.T) {
	cfg := mobilegossip.Config{
		Algorithm: mobilegossip.AlgSimSharedBit, N: 48, K: 6,
		Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4, Relabel: mobilegossip.RelabelBFS},
		Tau:      2, Seed: 72,
	}
	want, err := mobilegossip.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := mobilegossip.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < want.Rounds/2; i++ {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := mobilegossip.Resume(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Config().Topology.Relabel; got != mobilegossip.RelabelBFS {
		t.Fatalf("resumed Relabel = %v, want bfs", got)
	}
	got, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("relabeled resume diverged:\n got %+v\nwant %+v", got, want)
	}
}
