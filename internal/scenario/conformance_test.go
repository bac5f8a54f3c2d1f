package scenario_test

// The golden-trace conformance suite (DESIGN.md §15): every committed
// scenario under scenarios/ runs here with its result table (and, for
// single runs, its event stream) byte-compared against the goldens in
// scenarios/golden/ — local vs remote (an in-process gossipd), and a
// mid-phase checkpoint/resume split.
// Regenerate the goldens after an intentional output change with
//
//	go test ./internal/scenario -run TestGoldenConformance -update

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobilegossip/client"
	"mobilegossip/internal/daemon"
	"mobilegossip/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the golden files under scenarios/golden")

// scenariosDir locates the committed scenario library relative to this
// package.
func scenariosDir(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "..", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("scenario library not found: %v", err)
	}
	return dir
}

// listScenarios returns the library's scenario files, sorted.
func listScenarios(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(scenariosDir(t), "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no scenario files under scenarios/")
	}
	return paths
}

// startDaemon serves an in-process gossipd over httptest and returns its
// base URL.
func startDaemon(t *testing.T) string {
	t.Helper()
	d, err := daemon.New(daemon.Config{StateDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Close()
	})
	return srv.URL
}

// runScenario executes one scenario and returns its stdout bytes.
func runScenario(t *testing.T, path string, opts scenario.Options) []byte {
	t.Helper()
	var out bytes.Buffer
	opts.Out = &out
	opts.Log = io.Discard
	if err := scenario.RunFile(path, opts); err != nil {
		t.Fatalf("%s: %v", filepath.Base(path), err)
	}
	return out.Bytes()
}

// ckptRound picks a checkpoint round that lands mid-run: inside the
// second phase of a phased timeline, else round 20.
func ckptRound(spec *scenario.Spec) int {
	if len(spec.Phases) >= 2 {
		start := spec.Phases[0].Rounds
		return start + max(1, spec.Phases[1].Rounds/2)
	}
	return 20
}

func TestGoldenConformance(t *testing.T) {
	remote := startDaemon(t)
	for _, path := range listScenarios(t) {
		name := strings.TrimSuffix(filepath.Base(path), ".yaml")
		t.Run(name, func(t *testing.T) {
			spec, err := scenario.ParseFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if spec.Name != name {
				t.Fatalf("scenario name %q does not match file name %q", spec.Name, name)
			}
			goldenTable := filepath.Join(scenariosDir(t), "golden", name+".table.txt")
			goldenEvents := filepath.Join(scenariosDir(t), "golden", name+".events.jsonl")
			single := spec.Grid == nil

			// Reference run: local, recording events.
			tmp := t.TempDir()
			evPath := ""
			if single {
				evPath = filepath.Join(tmp, "events.jsonl")
			}
			table := runScenario(t, path, scenario.Options{EventsPath: evPath})
			if *update {
				if err := os.WriteFile(goldenTable, table, 0o644); err != nil {
					t.Fatal(err)
				}
				if single {
					ev, err := os.ReadFile(evPath)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(goldenEvents, ev, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			wantTable, err := os.ReadFile(goldenTable)
			if err != nil {
				t.Fatalf("missing golden (run with -update to generate): %v", err)
			}
			compare(t, "local table", table, wantTable)
			if single {
				wantEvents, err := os.ReadFile(goldenEvents)
				if err != nil {
					t.Fatalf("missing golden (run with -update to generate): %v", err)
				}
				ev, err := os.ReadFile(evPath)
				if err != nil {
					t.Fatal(err)
				}
				compare(t, "local events", ev, wantEvents)
			}

			// Remote: the daemon must emit the very same bytes.
			revPath := ""
			if single {
				revPath = filepath.Join(tmp, "events-remote.jsonl")
			}
			rtable := runScenario(t, path, scenario.Options{Remote: remote, EventsPath: revPath})
			compare(t, "remote table", rtable, wantTable)
			if single {
				rev, err := os.ReadFile(revPath)
				if err != nil {
					t.Fatal(err)
				}
				wantEvents, _ := os.ReadFile(goldenEvents)
				compare(t, "remote events", rev, wantEvents)
			}

			// Mid-run checkpoint, then resume — locally and remotely; the
			// resumed runs must converge on the same final table.
			if !single {
				return
			}
			ck := filepath.Join(tmp, "mid.ckpt")
			ckAt := ckptRound(spec)
			_ = runScenario(t, path, scenario.Options{CheckpointPath: ck, CheckpointAt: ckAt})
			if _, err := os.Stat(ck); err != nil {
				t.Fatalf("checkpoint at round %d was not written: %v", ckAt, err)
			}
			resumed := runScenario(t, path, scenario.Options{ResumePath: ck})
			compare(t, "local resume table", resumed, wantTable)
			rresumed := runScenario(t, path, scenario.Options{Remote: remote, ResumePath: ck})
			compare(t, "remote resume table", rresumed, wantTable)

			// The remote-written checkpoint must be byte-identical to the
			// local one: snapshots at the same boundary share bytes.
			rck := filepath.Join(tmp, "mid-remote.ckpt")
			_ = runScenario(t, path, scenario.Options{
				Remote: remote, CheckpointPath: rck, CheckpointAt: ckAt,
			})
			rb, err := os.ReadFile(rck)
			if err != nil {
				t.Fatal(err)
			}
			lb, err := os.ReadFile(ck)
			if err != nil {
				t.Fatal(err)
			}
			compare(t, "checkpoint bytes local vs remote", rb, lb)
		})
	}
}

// TestConformanceEvictRevive forces the daemon to evict the scenario's
// session between client calls (MaxLive: 1 plus a decoy session created
// before every run/rebind request) and checks the transparent revivals
// leave the output byte-identical to the golden anyway.
func TestConformanceEvictRevive(t *testing.T) {
	d, err := daemon.New(daemon.Config{StateDir: t.TempDir(), Workers: 2, MaxLive: 1})
	if err != nil {
		t.Fatal(err)
	}
	mux := d.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost &&
			(strings.HasSuffix(r.URL.Path, "/run") || strings.HasSuffix(r.URL.Path, "/rebind")) {
			// Registering the decoy trips the MaxLive cap and evicts the
			// idle scenario session; the request below then revives it.
			info, err := d.Create(client.CreateRequest{
				Algorithm: "blindmatch", N: 2, K: 1, Seed: 1,
				Topology: client.TopologySpec{Kind: "complete"},
			})
			if err != nil {
				t.Errorf("decoy create: %v", err)
			} else if err := d.Delete(info.ID); err != nil {
				t.Errorf("decoy delete: %v", err)
			}
		}
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()
	defer d.Close()

	path := filepath.Join(scenariosDir(t), "festival.yaml")
	table := runScenario(t, path, scenario.Options{Remote: srv.URL})
	want, err := os.ReadFile(filepath.Join(scenariosDir(t), "golden", "festival.table.txt"))
	if err != nil {
		t.Fatal(err)
	}
	compare(t, "evicted/revived remote table", table, want)

	var metrics bytes.Buffer
	if err := d.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, counter := range []string{"gossipd_evictions_total", "gossipd_revivals_total"} {
		if !metricPositive(metrics.String(), counter) {
			t.Errorf("%s is zero: the forced-eviction cell did not exercise eviction\n%s", counter, metrics.String())
		}
	}
}

// metricPositive reports whether the metrics text has counter > 0.
func metricPositive(metrics, counter string) bool {
	for _, line := range strings.Split(metrics, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == counter && fields[1] != "0" {
			return true
		}
	}
	return false
}

// compare fails with a first-divergence diff when got != want.
func compare(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gl := strings.Split(string(got), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: line %d differs\n got: %q\nwant: %q", what, i+1, g, w)
		}
	}
	t.Fatalf("%s: outputs differ", what)
}
