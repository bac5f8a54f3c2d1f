package daemon

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mobilegossip"
	"mobilegossip/client"
)

// TestDaemonLoad is the load-test CI job's body (make load-test): a few
// hundred concurrent sessions pushed through the full service loop —
// create → partial run → eviction under a low idle timeout and a
// MaxLive cap far below the session count → transparent revive → finish
// — with three hard assertions:
//
//   - zero lost or corrupted sessions: every session finishes solved,
//     with results equal to its seed's local reference run;
//   - eviction really happened (the cap and janitor were not idle),
//     and the mobilegossip_* counters still count one start per session
//     and no checkpoint;
//   - a throughput floor, so scheduler collapse (livelock, convoy)
//     fails the job rather than just slowing it.
//
// Skipped unless MOBILEGOSSIP_LOADTEST=1 so tier-1 stays fast. With
// GOSSIPD_BIN set it drives a real gossipd process over TCP; otherwise
// an in-process daemon behind the same client bindings.
func TestDaemonLoad(t *testing.T) {
	if os.Getenv("MOBILEGOSSIP_LOADTEST") != "1" {
		t.Skip("load test: set MOBILEGOSSIP_LOADTEST=1 (make load-test)")
	}
	const (
		sessions = 220
		maxLive  = 32
		workers  = 64  // client-side drivers, not daemon workers
		minRate  = 5.0 // sessions fully processed per second, conservative floor
	)

	var c *client.Client
	if bin := os.Getenv("GOSSIPD_BIN"); bin != "" {
		c = startGossipd(t, bin, maxLive)
	} else {
		_, c = newTestDaemon(t, Config{MaxLive: maxLive, IdleTimeout: 40 * time.Millisecond, SliceRounds: 16})
	}
	ctx := context.Background()

	// Local reference results, one per seed class.
	refs := make([]mobilegossip.Result, 8)
	for i := range refs {
		res, err := mobilegossip.Run(localConfig(uint64(9000 + i)))
		if err != nil {
			t.Fatalf("reference run %d: %v", i, err)
		}
		refs[i] = res
	}

	start := time.Now()
	ids := make([]string, sessions)
	var wg sync.WaitGroup
	errc := make(chan error, sessions)
	sem := make(chan struct{}, workers)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			info, err := c.Create(ctx, testWire(uint64(9000+i%len(refs))))
			if err != nil {
				errc <- fmt.Errorf("create %d: %w", i, err)
				return
			}
			ids[i] = info.ID
			if _, err := c.Run(ctx, info.ID, 5); err != nil {
				errc <- fmt.Errorf("partial run %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Let the idle timeout and the cap churn sessions to disk.
	time.Sleep(150 * time.Millisecond)
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if !strings.Contains(metrics, "gossipd_evictions_total") || strings.Contains(metrics, "gossipd_evictions_total 0\n") {
		t.Fatalf("no evictions under cap %d with %d sessions:\n%s", maxLive, sessions, firstLines(metrics, 40))
	}

	// Finish every session — reviving most of them from checkpoints —
	// and verify each against its seed's reference.
	errc = make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rr, err := c.Run(ctx, ids[i], 0)
			if err != nil {
				errc <- fmt.Errorf("finish %d (%s): %w", i, ids[i], err)
				return
			}
			ref := refs[i%len(refs)]
			if !rr.Solved || rr.Rounds != ref.Rounds || rr.Connections != ref.Connections ||
				rr.ControlBits != ref.ControlBits || rr.TokensMoved != ref.TokensMoved {
				errc <- fmt.Errorf("session %s corrupted: %+v != reference %+v", ids[i], rr, ref)
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	// Zero lost sessions: the daemon still holds all of them.
	infos, err := c.List(ctx)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(infos) != sessions {
		t.Fatalf("%d sessions listed, want %d", len(infos), sessions)
	}
	for _, info := range infos {
		if !info.Done || !info.Solved {
			t.Fatalf("session %s not finished: %+v", info.ID, info)
		}
	}

	// The mobilegossip_* counters count the logical runs: the evictions
	// and revivals above add no session start and no checkpoint.
	rows := counterRows(t, c)
	if rows["mobilegossip_sessions_started_total"] != fmt.Sprint(sessions) || rows["mobilegossip_checkpoints_written_total"] != "0" {
		t.Fatalf("after %d sessions: sessions_started_total %s, checkpoints_written_total %s; want %d and 0",
			sessions, rows["mobilegossip_sessions_started_total"], rows["mobilegossip_checkpoints_written_total"], sessions)
	}

	rate := float64(sessions) / elapsed.Seconds()
	t.Logf("load: %d sessions (cap %d) in %v — %.1f sessions/sec", sessions, maxLive, elapsed.Round(time.Millisecond), rate)
	if rate < minRate {
		t.Fatalf("throughput %.1f sessions/sec below the %.1f floor", rate, minRate)
	}
}

// startGossipd launches the real daemon binary on a free port and
// returns a client bound to it.
func startGossipd(t *testing.T, bin string, maxLive int) *client.Client {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-statedir", filepath.Join(dir, "state"),
		"-maxlive", fmt.Sprint(maxLive),
		"-idletimeout", "40ms",
		"-slice", "16",
		"-addrfile", addrFile,
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", bin, err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		b, err := os.ReadFile(addrFile)
		if err == nil && len(b) > 0 {
			return client.New(strings.TrimSpace(string(b)))
		}
		if time.Now().After(deadline) {
			t.Fatalf("gossipd never wrote %s", addrFile)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
