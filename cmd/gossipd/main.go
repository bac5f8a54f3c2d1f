// Command gossipd serves gossip simulations as a daemon: an HTTP+JSON
// API (the v1 wire format of the client package) multiplexing many
// concurrent simulation sessions over a bounded scheduler, with idle
// sessions transparently evicted to disk checkpoints and revived on
// their next touch (DESIGN.md §14).
//
// Usage:
//
//	gossipd -addr :7373 -statedir /var/lib/gossipd
//	gossipd -addr 127.0.0.1:0 -maxlive 64 -idletimeout 30s
//
// Endpoints (all JSON unless noted):
//
//	GET    /v1/version                     API + format versions
//	POST   /v1/sessions                    create from a CreateRequest
//	GET    /v1/sessions                    list sessions
//	POST   /v1/sessions/resume             create from an uploaded checkpoint; ?record_events=1 records its events
//	GET    /v1/sessions/{id}               session state (never blocks on a stepping session)
//	DELETE /v1/sessions/{id}               delete session + on-disk state
//	POST   /v1/sessions/{id}/run           advance N rounds (<=0: to completion); long poll
//	POST   /v1/sessions/{id}/rebind        swap topology schedule and τ at the round boundary
//	POST   /v1/sessions/{id}/checkpoint    download checkpoint (octet-stream)
//	POST   /v1/sessions/{id}/cancel        cancel pending run jobs
//	GET    /v1/sessions/{id}/events        recorded event replay (NDJSON); ?follow=1 tails the record
//	GET    /metrics                        daemon + aggregated session metrics
//
// Drive it with the client package's typed bindings or with
// `gossipsim -remote ADDR`, which runs the same single-run commands
// (including checkpoint and resume) against a daemon with byte-identical
// output to a local run.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mobilegossip/internal/daemon"
	"mobilegossip/internal/httpserve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gossipd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gossipd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:7373", "listen address (host:port; :0 picks a free port)")
		stateDir    = fs.String("statedir", "gossipd-state", "directory for eviction checkpoints and recorded event logs")
		workers     = fs.Int("workers", 0, "scheduler worker pool size; 0 = GOMAXPROCS (results identical at any value)")
		maxLive     = fs.Int("maxlive", 0, "max memory-resident sessions; beyond it idle sessions are checkpointed to -statedir (0 = no cap)")
		idleTimeout = fs.Duration("idletimeout", 0, "evict sessions idle this long to disk checkpoints (0 = never)")
		slice       = fs.Int("slice", 0, "scheduler fairness quantum in rounds per slice (0 = default 64)")
		pprofFlag   = fs.Bool("pprof", false, "mount /debug/pprof on the same listener")
		addrFile    = fs.String("addrfile", "", "write the bound address to this file once listening (for scripts binding to :0)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}

	d, err := daemon.New(daemon.Config{
		StateDir:    *stateDir,
		Workers:     *workers,
		MaxLive:     *maxLive,
		IdleTimeout: *idleTimeout,
		SliceRounds: *slice,
	})
	if err != nil {
		return err
	}
	defer d.Close()

	mux := d.Handler()
	if *pprofFlag {
		httpserve.MountPprof(mux)
	}
	srv, err := httpserve.Start(*addr, mux)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gossipd: serving on http://%s/ (workers=%d, maxlive=%d, idletimeout=%v, statedir=%s)\n",
		srv.Addr(), d.Workers(), *maxLive, *idleTimeout, *stateDir)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			srv.Shutdown(time.Second)
			return err
		}
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	<-sigc
	fmt.Fprintln(os.Stderr, "gossipd: shutting down")
	return srv.Shutdown(5 * time.Second)
}
