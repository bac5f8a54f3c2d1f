package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// compareFiles prints one row per workload × end-to-end metric of two
// results.json files, B judged against A: ok, worse (beyond the metric's
// bound), or unresolved when either side's spread across repeats exceeds
// the bound. Simulated counts must be equal. It returns the exit code: 1
// when a row is worse or a count differs.
func compareFiles(out io.Writer, pathA, pathB string) int {
	a, errA := loadResults(pathA)
	b, errB := loadResults(pathB)
	if errA != nil || errB != nil {
		fmt.Fprintln(os.Stderr, "gossipbench:", errA, errB)
		return 2
	}
	if a.Env.Seed != b.Env.Seed || a.Env.Scale != b.Env.Scale {
		fmt.Fprintf(os.Stderr, "gossipbench: seed %d scale %s against seed %d scale %s: counts and times are not comparable\n",
			a.Env.Seed, a.Env.Scale, b.Env.Seed, b.Env.Scale)
		return 2
	}
	fmt.Fprintf(out, "A: %s  commit %s, %d CPUs\nB: %s  commit %s, %d CPUs\n\n",
		pathA, a.Env.Commit, a.Env.NumCPU, pathB, b.Env.Commit, b.Env.NumCPU)
	bad := false
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tchange\tbound\tspread A\tspread B\tverdict")
	for _, wa := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(w workloadResult) bool { return w.Workload == wa.Workload })
		if i < 0 {
			continue
		}
		wb := b.Workloads[i]
		for _, m := range endToEnd {
			va, okA := wa.EndToEnd[m.Name]
			vb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			// change > 0 means B is worse, whatever the metric's direction.
			change := ratio(vb.Value-va.Value, va.Value)
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case spread(va) > m.Bound || spread(vb) > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict, bad = "worse", true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n", wa.Workload, m.Name,
				va.Value, vb.Value, 100*change, 100*m.Bound, 100*spread(va), 100*spread(vb), verdict)
		}
		exact := func(name string, x, y float64) {
			verdict := "equal"
			if x != y {
				verdict, bad = "DIFFERENT", true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.10g\t%.10g\t\t\t\t\t%s\n", wa.Workload, name, x, y, verdict)
		}
		exact("rounds", float64(wa.Rounds), float64(wb.Rounds))
		for _, m := range perLayer {
			va, okA := wa.PerLayer[m.Name]
			vb, okB := wb.PerLayer[m.Name]
			if m.Exact && okA && okB {
				exact(m.Name, va.Value, vb.Value)
			}
		}
	}
	tw.Flush()
	if bad {
		return 1
	}
	return 0
}

// spread is the range of a metric's repeats over their median.
func spread(v value) float64 {
	if len(v.Runs) < 2 {
		return 0
	}
	return ratio(slices.Max(v.Runs)-slices.Min(v.Runs), v.Value)
}

func loadResults(path string) (results, error) {
	var r results
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
