package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestSmoke runs every workload through both passes at smoke scale and
// checks that each metric is emitted, with its unit, on every workload
// listed for it, and that the line the driver reads names them all.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs gossipsim and gossipd")
	}
	res, err := run(options{out: t.TempDir(), seed: defaultSeed, smoke: true}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 5 {
		t.Fatalf("ran %d workloads, want 5", len(res.Workloads))
	}
	for _, wr := range res.Workloads {
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", wr.Workload, wr.Failed, wr.Attempted, wr.Notes)
		}
		for _, m := range endToEnd {
			if v, ok := wr.EndToEnd[m.Name]; !ok || v.Unit != m.Unit || v.Value <= 0 || len(v.Runs) == 0 {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s with its raw runs", wr.Workload, m.Name, v, m.Unit)
			}
		}
		for _, m := range perLayer {
			v, ok := wr.PerLayer[m.Name]
			want := m.on(wr.Workload)
			if strings.HasPrefix(m.Name, "mtm.shard_speedup") && runtime.NumCPU() < 2 {
				want = false
			}
			if ok != want || (ok && v.Unit != m.Unit) {
				t.Errorf("%s: per-layer metric %s emitted=%v (%+v), want emitted=%v in %s", wr.Workload, m.Name, ok, v, want, m.Unit)
			}
		}
		if c := wr.PerLayer["trace.span_coverage"].Value; c < 0.9 {
			t.Errorf("%s: spans cover %.2f of the traced wall, want at least 0.9", wr.Workload, c)
		}
		for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
			var line struct {
				Correct   bool             `json:"correct"`
				Attempted int              `json:"attempted"`
				Failed    int              `json:"failed"`
				Metrics   map[string]value `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(driverLine(wr, trace)), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(defs) {
				t.Errorf("%s trace %s: driver line %+v, want correct with %d metrics", wr.Workload, trace, line, len(defs))
			}
			for _, m := range defs {
				if line.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("%s trace %s: driver line lacks %s in %s", wr.Workload, trace, m.Name, m.Unit)
				}
			}
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the workloads and metric
// tables of this package, the single source of the names.
func TestBenchmarkJSON(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %q paths %q", doc.Command, doc.Paths)
	}
	ws := workloads(false)
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v, want %s: %s (at most 200 characters)", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	check := func(kind string, got []metric, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(defs))
		}
		for i, m := range defs {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || (g.Bound != nil) != bounded || (bounded && *g.Bound != m.Bound) {
				t.Errorf("%s %d: %+v, want %s in %s, better %s, bound %v", kind, i, g, m.Name, m.Unit, m.Better, m.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

// TestPublicAPIOnly fails if the benchmark reaches past the public API —
// the compiler already refuses mobilegossip/internal/... from this module —
// or uses API the ROADMAP schedules for deletion.
func TestPublicAPIOnly(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, banned := range []string{"mobilegossip/internal", ".Concurrent", "OnRound", "TraceWriter", "-concurrent"} {
			if strings.Contains(string(src), banned) {
				t.Errorf("%s references %q", file, banned)
			}
		}
	}
}
