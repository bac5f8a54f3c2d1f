package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mobilegossip"
	"mobilegossip/client"
)

// daemonProc is a running gossipd child.
type daemonProc struct {
	cmd  *exec.Cmd
	addr string
	logs *os.File
}

// startDaemon launches gossipd on a free loopback port with its state
// under dir and returns once the daemon answers. There is no idle
// timeout: only the -maxlive LRU evicts.
func startDaemon(gossipd, dir string, load daemonLoad) (*daemonProc, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logs, err := os.Create(filepath.Join(dir, "gossipd.log"))
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(gossipd, "-addr", "127.0.0.1:0", "-addrfile", addrFile,
		"-statedir", filepath.Join(dir, "state"),
		"-maxlive", strconv.Itoa(load.MaxLive), "-slice", strconv.Itoa(load.Slice))
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		logs.Close()
		return nil, err
	}
	d := &daemonProc{cmd: cmd, logs: logs}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(data), "\n") {
			d.addr = strings.TrimSpace(string(data))
			if _, err := client.New(d.addr).Version(context.Background()); err == nil {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, errors.New("gossipd did not become ready within 10s")
}

// stop terminates the daemon, waits for it, and returns its CPU time and
// peak resident set.
func (d *daemonProc) stop() (cpu time.Duration, rssMB float64) {
	rssMB = peakRSSMB(d.cmd.Process.Pid)
	d.cmd.Process.Signal(syscall.SIGTERM)
	d.cmd.Wait()
	d.logs.Close()
	return d.cmd.ProcessState.UserTime() + d.cmd.ProcessState.SystemTime(), rssMB
}

// daemonStats is what one pass of the load loop measured besides its wall.
type daemonStats struct {
	Requests, FailedRequests int
	EventLines, EventBytes   int64
	Scrape                   map[string]float64 // gossipd_* counters, after − before
}

// reference is the local result of one of the seeds the sessions cycle
// through; every daemon session must reproduce its seed's.
type reference struct {
	Seed   uint64
	Result mobilegossip.Result
}

// references runs every seed of the load locally through the session API
// and returns the results with the time the runs took: the local cost of
// the same simulations.
func references(w workload, seed uint64) ([]reference, time.Duration, error) {
	spec := w.Specs[0]
	refs := make([]reference, w.Daemon.Seeds)
	start := time.Now()
	for i := range refs {
		refs[i].Seed = mixSeed(seed, spec.Name, i)
		res, err := mobilegossip.Run(spec.config(spec.N, spec.K, refs[i].Seed))
		if err != nil {
			return nil, 0, fmt.Errorf("reference run %d: %w", i, err)
		}
		refs[i].Result = res
	}
	return refs, time.Since(start), nil
}

// driveSessions is the closed loop: load.Clients goroutines, each with its
// own client and at most one request in flight, share the session indices.
// A client opens a window of sessions (create, run a few rounds), which
// overflows -maxlive and so evicts, then finishes each: run to completion
// (reviving it), state, checkpoint download, events download, delete.
// Every request and every cross-check counts as an operation.
func driveSessions(addr string, w workload, refs []reference, first, count int, tr *tracer) (checks, *daemonStats, int64) {
	load, spec := *w.Daemon, w.Specs[0]
	// Never more client goroutines, and so connections, than CPUs.
	load.Clients = min(load.Clients, runtime.NumCPU())
	ctx := context.Background()
	var (
		mu     sync.Mutex
		total  checks
		stats  = &daemonStats{}
		rounds int64
		wg     sync.WaitGroup
	)
	for c := 0; c < load.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.New(addr)
			var ck checks
			var st daemonStats
			var simulated int64
			root := tr.begin("client.loop", 0, "")
			// call runs one request inside a span and counts it.
			call := func(name, id string, fn func() error) bool {
				sp := tr.begin(name, root, id)
				err := fn()
				tr.end(sp)
				st.Requests++
				if err != nil {
					st.FailedRequests++
				}
				return ck.ok(err == nil, "%s %s: %v", name, id, err)
			}
			type open struct {
				id  string
				ref reference
			}
			// Client c owns the windows c, c+Clients, c+2·Clients, ...
			for base := first + c*load.Window; base < first+count; base += load.Clients * load.Window {
				var window []open
				for i := base; i < min(base+load.Window, first+count); i++ {
					ref := refs[i%len(refs)]
					var info client.SessionInfo
					if !call("http.create", "", func() (err error) {
						info, err = cl.Create(ctx, spec.createRequest(ref.Seed))
						return err
					}) {
						continue
					}
					window = append(window, open{info.ID, ref})
					call("http.run_partial", info.ID, func() error {
						_, err := cl.Run(ctx, info.ID, load.PartialRounds)
						return err
					})
				}
				for _, o := range window {
					var res client.RunResult
					var info client.SessionInfo
					var ckpt int64
					var ev eventLog
					done := call("http.run_finish", o.id, func() (err error) {
						res, err = cl.Run(ctx, o.id, 0)
						return err
					})
					call("http.state", o.id, func() (err error) {
						info, err = cl.State(ctx, o.id)
						return err
					})
					call("http.checkpoint", o.id, func() error {
						rc, err := cl.Checkpoint(ctx, o.id)
						if err != nil {
							return err
						}
						defer rc.Close()
						ckpt, err = io.Copy(io.Discard, rc)
						return err
					})
					call("http.events", o.id, func() error {
						rc, err := cl.Events(ctx, o.id, client.EventOptions{})
						if err != nil {
							return err
						}
						defer rc.Close()
						ev, err = decodeEvents(rc)
						return err
					})
					call("http.delete", o.id, func() error { return cl.Delete(ctx, o.id) })
					if !done {
						continue
					}
					want := o.ref.Result
					ck.ok(res.Solved && res.Rounds == want.Rounds && res.Connections == want.Connections &&
						res.ControlBits == want.ControlBits && res.TokensMoved == want.TokensMoved,
						"session %s (seed %d): result %+v differs from the local reference %+v", o.id, o.ref.Seed, res, want)
					ck.ok(info.Done && info.Solved && info.Round == want.Rounds && ckpt > 0,
						"session %s: state %+v or a %d-byte checkpoint after a finished run", o.id, info, ckpt)
					ck.ok(ev.Rounds == want.Rounds && ev.Ended,
						"session %s: events replay %d rounds (session_end: %v), want %d", o.id, ev.Rounds, ev.Ended, want.Rounds)
					st.EventLines += ev.Lines
					st.EventBytes += ev.Bytes
					simulated += int64(res.Rounds)
				}
			}
			tr.end(root)
			mu.Lock()
			defer mu.Unlock()
			total.add(ck)
			stats.Requests += st.Requests
			stats.FailedRequests += st.FailedRequests
			stats.EventLines += st.EventLines
			stats.EventBytes += st.EventBytes
			rounds += simulated
		}(c)
	}
	wg.Wait()
	return total, stats, rounds
}

// eventLog summarizes a decoded JSONL event stream.
type eventLog struct {
	Lines, Bytes int64
	Rounds       int  // round_completed lines
	Ended        bool // a session_end line was seen
}

// decodeEvents checks that every line of an event stream is a JSON object
// of a known event type.
func decodeEvents(r io.Reader) (eventLog, error) {
	var log eventLog
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
		}
		err := json.Unmarshal(sc.Bytes(), &ev)
		if err == nil {
			_, err = mobilegossip.ParseEventType(ev.Type)
		}
		if err != nil {
			return log, fmt.Errorf("event line %d: %w", log.Lines+1, err)
		}
		log.Lines++
		log.Bytes += int64(len(sc.Bytes())) + 1
		switch ev.Type {
		case "round_completed":
			log.Rounds++
		case "session_end":
			log.Ended = true
		}
	}
	return log, sc.Err()
}

// scrape reads the gossipd_* counters off /metrics.
func scrape(addr string) (map[string]float64, error) {
	text, err := client.New(addr).Metrics(context.Background())
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, "gossipd_") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// loadPass is one timed pass of the load loop against the running, warmed
// daemon, between two /metrics scrapes. CPU and RSS are known only once
// the daemon is stopped; the caller fills them in.
func loadPass(d *daemonProc, w workload, refs []reference, tr *tracer) (pass, error) {
	var p pass
	load := *w.Daemon
	before, err := scrape(d.addr)
	if err != nil {
		return p, err
	}
	start := time.Now()
	ck, stats, rounds := driveSessions(d.addr, w, refs, load.Warmup, load.Sessions, tr)
	p.Wall = time.Since(start)
	p.Checks, p.Rounds, p.Daemon = ck, rounds, stats

	after, err := scrape(d.addr)
	if err != nil {
		return p, err
	}
	stats.Scrape = make(map[string]float64)
	for name, v := range after {
		stats.Scrape[name] = v - before[name]
	}
	p.Checks.ok(after["gossipd_sessions"] == 0, "gossipd still holds %v sessions after every delete", after["gossipd_sessions"])
	return p, nil
}
