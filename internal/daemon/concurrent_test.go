package daemon

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"mobilegossip/client"
)

// TestDaemonConcurrentTraffic is the daemon's race-detector workload
// (run un-shortened by the race-concurrent CI job): sessions are
// created, stepped, evicted (tight cap + janitor), revived, followed and
// deleted while /metrics scrapes, state queries and event streams hammer
// the same daemon from other goroutines. The assertions are weak on
// purpose — the test's job is to put every lock and atomic under
// contention; correctness-under-eviction has its own deterministic
// tests.
func TestDaemonConcurrentTraffic(t *testing.T) {
	const (
		drivers  = 6
		sessions = 4 // per driver
	)
	d, c := newTestDaemon(t, Config{
		Workers:     4,
		MaxLive:     3,
		IdleTimeout: 20 * time.Millisecond,
		SliceRounds: 4,
	})
	ctx := context.Background()

	stop := make(chan struct{})
	var aux sync.WaitGroup
	// Scrapers and listers run until the drivers are done.
	for i := 0; i < 2; i++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Metrics(ctx); err != nil {
					t.Errorf("Metrics: %v", err)
					return
				}
				if _, err := c.List(ctx); err != nil {
					t.Errorf("List: %v", err)
					return
				}
			}
		}()
	}

	var drv sync.WaitGroup
	for g := 0; g < drivers; g++ {
		drv.Add(1)
		go func(g int) {
			defer drv.Done()
			for i := 0; i < sessions; i++ {
				seed := uint64(1000*g + i)
				req := testWire(seed)
				req.RecordEvents = true
				info, err := c.Create(ctx, req)
				if err != nil {
					t.Errorf("driver %d: Create: %v", g, err)
					return
				}
				// A follower streams the whole session concurrently with
				// stepping, eviction pressure and scrapes.
				fctx, fcancel := context.WithCancel(ctx)
				rc, err := c.Events(fctx, info.ID, client.EventOptions{Follow: true})
				if err != nil {
					fcancel()
					t.Errorf("driver %d: follow: %v", g, err)
					return
				}
				followed := make(chan struct{})
				go func() {
					defer close(followed)
					_, _ = io.Copy(io.Discard, rc)
					rc.Close()
				}()
				if _, err := c.Run(ctx, info.ID, 3); err != nil {
					fcancel()
					t.Errorf("driver %d: Run(3): %v", g, err)
					return
				}
				// Give the janitor a window to evict, under the cap's
				// pressure, while the follower tails the record.
				time.Sleep(5 * time.Millisecond)
				rr, err := c.Run(ctx, info.ID, 0)
				if err != nil {
					fcancel()
					t.Errorf("driver %d: Run(0): %v", g, err)
					return
				}
				if !rr.Solved {
					t.Errorf("driver %d: session %s unsolved: %+v", g, info.ID, rr)
				}
				select {
				case <-followed:
				case <-time.After(5 * time.Second):
					t.Errorf("driver %d: follower never finished", g)
				}
				fcancel()
				if err := c.Delete(ctx, info.ID); err != nil {
					t.Errorf("driver %d: Delete: %v", g, err)
				}
			}
		}(g)
	}
	drv.Wait()
	close(stop)
	aux.Wait()

	if n := len(d.List()); n != 0 {
		t.Fatalf("%d sessions left after all deletes", n)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("final Metrics: %v", err)
	}
	wantCreated := fmt.Sprintf("gossipd_sessions_created_total %d", drivers*sessions)
	if !strings.Contains(text, wantCreated) {
		t.Fatalf("metrics missing %q", wantCreated)
	}
}
