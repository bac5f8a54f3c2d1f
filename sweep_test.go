package mobilegossip_test

import (
	"reflect"
	"sync"
	"testing"

	"mobilegossip"
)

func sweepPoints() []mobilegossip.Config {
	var pts []mobilegossip.Config
	for _, n := range []int{16, 24, 32} {
		pts = append(pts, mobilegossip.Config{
			Algorithm: mobilegossip.AlgSharedBit, N: n, K: 4,
			Topology: mobilegossip.Topology{Kind: mobilegossip.RandomRegular, Degree: 4},
			Tau:      1,
		})
	}
	return pts
}

// TestRunSweepDeterministicAcrossWorkers: RunSweep's central contract —
// the same SweepConfig yields identical results at every worker count.
func TestRunSweepDeterministicAcrossWorkers(t *testing.T) {
	var want []mobilegossip.PointResult
	for i, workers := range []int{1, 4, 16} {
		got, err := mobilegossip.RunSweep(mobilegossip.SweepConfig{
			Points: sweepPoints(), Trials: 3, Seed: 7, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d produced different results than workers=1", workers)
		}
	}
	for p, pt := range want {
		solved, minR, maxR := 0, pt.Runs[0].Rounds, pt.Runs[0].Rounds
		for _, r := range pt.Runs {
			if r.Solved {
				solved++
			}
			minR, maxR = min(minR, r.Rounds), max(maxR, r.Rounds)
		}
		if solved != len(pt.Runs) {
			t.Errorf("point %d: %d/%d solved", p, solved, len(pt.Runs))
		}
		if pt.MeanRounds < float64(minR) || pt.MeanRounds > float64(maxR) || minR <= 0 {
			t.Errorf("point %d: mean %.1f outside run range [%d,%d]", p, pt.MeanRounds, minR, maxR)
		}
	}
}

// TestRunSweepCellReproducibleViaRun: every sweep cell can be replayed as a
// single Run at the seed SweepSeed exposes.
func TestRunSweepCellReproducibleViaRun(t *testing.T) {
	const trials = 2
	points, err := mobilegossip.RunSweep(mobilegossip.SweepConfig{
		Points: sweepPoints(), Trials: trials, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	for p, pt := range points {
		for tr, got := range pt.Runs {
			cfg := sweepPoints()[p]
			cfg.Seed = mobilegossip.SweepSeed(99, p*trials+tr)
			want, err := mobilegossip.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("point %d trial %d: sweep %+v != direct run %+v", p, tr, got, want)
			}
		}
	}
}

func TestRunSweepValidation(t *testing.T) {
	if _, err := mobilegossip.RunSweep(mobilegossip.SweepConfig{}); err == nil {
		t.Fatal("empty sweep should error")
	}
	_, err := mobilegossip.RunSweep(mobilegossip.SweepConfig{
		Points: []mobilegossip.Config{{Algorithm: mobilegossip.AlgSharedBit, N: 1, K: 1}},
	})
	if err == nil {
		t.Fatal("invalid point config should propagate Run's validation error")
	}
}

func TestRunSweepProgress(t *testing.T) {
	var mu sync.Mutex
	last, calls := 0, 0
	points, err := mobilegossip.RunSweep(mobilegossip.SweepConfig{
		Points: sweepPoints()[:2], Trials: 2, Seed: 3, Workers: 2,
		OnProgress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			last = done
			if total != 4 {
				t.Errorf("total = %d, want 4", total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 || last != 4 {
		t.Errorf("progress: %d calls, last done=%d, want 4/4", calls, last)
	}
	if len(points) != 2 {
		t.Errorf("points = %d, want 2", len(points))
	}
}

// TestRunSweepMobilityChurn checks a mobility sweep's points carry the
// churn its runs measured, which the harness's churn columns read.
func TestRunSweepMobilityChurn(t *testing.T) {
	points, err := mobilegossip.RunSweep(mobilegossip.SweepConfig{
		Points: []mobilegossip.Config{{
			Algorithm: mobilegossip.AlgSharedBit, N: 48, K: 4,
			Topology: mobilegossip.Topology{Kind: mobilegossip.MobileWaypoint, Speed: 0.03},
			Tau:      1,
		}},
		Trials: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if points[0].MeanEdgesAdded <= 0 || points[0].MeanEdgesRemoved <= 0 {
		t.Fatalf("mobility sweep measured no churn: %+v", points[0])
	}
}
