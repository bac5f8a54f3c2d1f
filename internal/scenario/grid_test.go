package scenario

import (
	"context"
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"mobilegossip"
)

// TestGridCellReplaysAsSingleRun: every (p, t) cell of a grid scenario
// equals the single-run scenario at point p's n and k and at seed
// SweepSeed(seed, p·T+t).
func TestGridCellReplaysAsSingleRun(t *testing.T) {
	spec, err := ParseFile(filepath.Join("..", "..", "scenarios", "commuter-rush.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Out: io.Discard, Log: io.Discard}
	runs, err := runGrid(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	pts, trials := spec.points(), spec.Grid.Trials
	if len(runs) != len(pts) {
		t.Fatalf("%d grid rows, want %d points", len(runs), len(pts))
	}
	ctx := context.Background()
	for p, row := range runs {
		if len(row) != trials {
			t.Fatalf("point %d: %d cells, want %d trials", p, len(row), trials)
		}
		for tr, got := range row {
			single := *spec
			single.Grid = nil
			single.N, single.K = pts[p].n, pts[p].k
			single.Seed = mobilegossip.SweepSeed(spec.Seed, p*trials+tr)
			s, err := Open(ctx, single.CreateRequest(single.N, single.K, single.Seed, false), opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Drive(ctx, s, single.timeline(), opts)
			s.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("point %d trial %d: grid cell %+v != single run %+v", p, tr, got, want)
			}
		}
	}
}
