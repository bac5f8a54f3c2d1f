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
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

// evictingDaemon serves an in-process gossipd with MaxLive: 1 that
// creates and deletes a decoy session before every run/rebind request:
// registering the decoy trips the cap and evicts the idle sessions, so
// the request itself revives its session from the eviction checkpoint.
func evictingDaemon(t *testing.T) (*daemon.Daemon, string) {
	t.Helper()
	d, err := daemon.New(daemon.Config{StateDir: t.TempDir(), Workers: 2, MaxLive: 1})
	if err != nil {
		t.Fatal(err)
	}
	mux := d.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost &&
			(strings.HasSuffix(r.URL.Path, "/run") || strings.HasSuffix(r.URL.Path, "/rebind")) {
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
	t.Cleanup(func() {
		srv.Close()
		d.Close()
	})
	return d, srv.URL
}

// requireEvictRevive fails the test unless d evicted and revived at least
// one session.
func requireEvictRevive(t *testing.T, d *daemon.Daemon) {
	t.Helper()
	var metrics bytes.Buffer
	if err := d.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, counter := range []string{"gossipd_evictions_total", "gossipd_revivals_total"} {
		if !metricPositive(metrics.String(), counter) {
			t.Errorf("%s is zero: eviction went unexercised\n%s", counter, metrics.String())
		}
	}
}

// TestConformanceEvictRevive forces the daemon to evict the scenario's
// session between client calls and checks the transparent revivals
// leave the output byte-identical to the golden anyway.
func TestConformanceEvictRevive(t *testing.T) {
	d, url := evictingDaemon(t)
	path := filepath.Join(scenariosDir(t), "festival.yaml")
	table := runScenario(t, path, scenario.Options{Remote: url})
	want, err := os.ReadFile(filepath.Join(scenariosDir(t), "golden", "festival.table.txt"))
	if err != nil {
		t.Fatal(err)
	}
	compare(t, "evicted/revived remote table", table, want)
	requireEvictRevive(t, d)
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

// TestResumeFinishedCheckpoint resumes a checkpoint taken when its run
// finished — at max_rounds, and by solving inside a fixed-length last
// phase, whose timeline then ends at a round the run never reaches.
// Nothing is left to step, yet the resumed run still ends: its event
// stream is the one session_end line, byte-identical locally and against
// gossipd, and the daemon's follow stream of such a session ends by
// itself.
func TestResumeFinishedCheckpoint(t *testing.T) {
	url := startDaemon(t)
	for name, yaml := range map[string]string{
		"max_rounds": `version: 1
name: finished
seed: 3
algorithm: sharedbit
n: 32
k: 8
max_rounds: 6
topology:
  kind: regular
  degree: 4
`,
		"solved in a fixed phase": `version: 1
name: finished-phased
seed: 3
algorithm: sharedbit
n: 16
k: 2
topology:
  kind: complete
phases:
  - name: warmup
    rounds: 2
  - name: rest
    rounds: 500
`,
	} {
		t.Run(name, func(t *testing.T) {
			spec, err := scenario.Parse([]byte(yaml))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			ckptPath := filepath.Join(dir, "final.ckpt")
			if err := scenario.Run(spec, scenario.Options{CheckpointPath: ckptPath, Out: io.Discard}); err != nil {
				t.Fatal(err)
			}
			var streams [2][]byte
			for i, remote := range []string{"", url} {
				path := filepath.Join(dir, "resumed.jsonl")
				if err := scenario.Run(spec, scenario.Options{
					Remote: remote, ResumePath: ckptPath, EventsPath: path, Out: io.Discard,
				}); err != nil {
					t.Fatalf("remote=%q: %v", remote, err)
				}
				if streams[i], err = os.ReadFile(path); err != nil {
					t.Fatal(err)
				}
			}
			if bytes.Count(streams[0], []byte("\n")) != 1 || !bytes.Contains(streams[0], []byte(`"type":"session_end"`)) {
				t.Fatalf("local resumed stream = %q, want one session_end line", streams[0])
			}
			if !bytes.Equal(streams[1], streams[0]) {
				t.Fatalf("remote resumed stream diverged from local:\nremote: %q\nlocal:  %q", streams[1], streams[0])
			}

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			c := client.New(url)
			f, err := os.Open(ckptPath)
			if err != nil {
				t.Fatal(err)
			}
			info, err := c.Resume(ctx, f, true)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(ctx, info.ID, 0); err != nil {
				t.Fatal(err)
			}
			rc, err := c.Events(ctx, info.ID, client.EventOptions{Follow: true})
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			followed, err := io.ReadAll(rc)
			if err != nil {
				t.Fatalf("follow stream of a finished session did not end by itself: %v", err)
			}
			if !bytes.Equal(followed, streams[0]) {
				t.Fatalf("follow stream = %q, want the local stream %q", followed, streams[0])
			}
		})
	}
}
